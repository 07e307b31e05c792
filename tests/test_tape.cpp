// Tests for the autograd tape (tensor/tape.h).
//
// The contract under test: backward() runs the closures in one fixed
// reverse-topological order, so gradients are BIT-identical for any thread
// count and with the storage pool on or off. Retiring the tape must not
// disturb intermediates the caller still holds, and steady-state planning
// allocates nothing. Diagnostic reports (race tracking) are identical for
// every pool size.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "common/thread_pool.h"
#include "nn/optim.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace mfa {
namespace {

using ops::add;
using ops::conv2d;
using ops::mul;
using ops::relu;
using ops::sum;
using tensor::StoragePool;
using tensor::Tape;

/// Pins the pool-thread count and the storage-pool switch for a test body;
/// restores both on exit. The pool switch defaults to its current state.
class TapeEnv {
 public:
  explicit TapeEnv(int threads, bool pool = StoragePool::instance().enabled())
      : threads_prev_(common::ThreadPool::instance().size()),
        pool_prev_(StoragePool::instance().enabled()) {
    common::ThreadPool::instance().resize_for_testing(threads);
    StoragePool::instance().set_enabled(pool);
  }
  ~TapeEnv() {
    StoragePool::instance().set_enabled(pool_prev_);
    common::ThreadPool::instance().resize_for_testing(threads_prev_);
  }

 private:
  int threads_prev_;
  bool pool_prev_;
};

/// The bit-identity matrix: pool threads {1, 4} x storage pool {on, off}.
/// Entry 0 is the reference every other configuration must match.
struct MatrixConfig {
  int threads;
  bool pool;
};
constexpr MatrixConfig kMatrix[] = {
    {1, true}, {4, true}, {1, false}, {4, false}};

Tensor make_input(Shape shape, int seed, float scale = 1.0f) {
  Rng rng(static_cast<std::uint64_t>(seed));
  return Tensor::randn(std::move(shape), rng, scale, /*requires_grad=*/true);
}

/// A wide graph: `branches` independent relu(w_i * x_i) arms joined by a
/// balanced add tree.
Tensor wide_branch_loss(const std::vector<Tensor>& ws,
                        const std::vector<Tensor>& xs) {
  std::vector<Tensor> arms;
  arms.reserve(ws.size());
  for (size_t i = 0; i < ws.size(); ++i)
    arms.push_back(sum(relu(mul(ws[i], xs[i]))));
  while (arms.size() > 1) {
    std::vector<Tensor> next;
    for (size_t i = 0; i + 1 < arms.size(); i += 2)
      next.push_back(add(arms[i], arms[i + 1]));
    if (arms.size() % 2 == 1) next.push_back(arms.back());
    arms.swap(next);
  }
  return arms.front();
}

/// Gradients of `params` after backward of fn(), as flat bytes for bitwise
/// comparison.
std::vector<float> grads_after_backward(const std::function<Tensor()>& fn,
                                        std::vector<Tensor>& params) {
  for (auto& p : params) p.zero_grad();
  fn().backward();
  std::vector<float> flat;
  for (auto& p : params) {
    const auto g = p.grad().to_vector();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

// ---- correctness: gradcheck and bit identity ------------------------------

TEST(TapeGraph, DiamondGraphGradchecksOnFourThreads) {
  const TapeEnv env(4);
  Tensor a = make_input({64}, 11, 0.5f);
  const auto result = gradcheck(
      [&] {
        // Two distinct paths from one tensor, re-joined: both consumers of
        // `a` scatter into its grad. Smooth ops only — a relu kink near
        // zero would dominate the finite-difference error.
        Tensor left = mul(a, a);
        Tensor right = ops::tanh(a);
        return sum(add(mul(left, right), left));
      },
      {a}, /*eps=*/1e-2f, /*tol=*/5e-2f);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(TapeGraph, SharedSubexpressionBitIdenticalAcrossThreadsAndPool) {
  // s = a*a feeds three consumers; every scatter into s.grad (and then into
  // a.grad) must accumulate in the walk's one fixed order, bit for bit.
  Tensor a = make_input({4096}, 12, 0.5f);
  Tensor b = make_input({4096}, 13, 0.5f);
  std::vector<Tensor> params = {a, b};
  const auto build = [&] {
    Tensor s = mul(a, a);
    return sum(add(add(mul(s, b), relu(s)), mul(s, s)));
  };
  std::vector<std::vector<float>> runs;
  for (const MatrixConfig& cfg : kMatrix) {
    const TapeEnv env(cfg.threads, cfg.pool);
    runs.push_back(grads_after_backward(build, params));
  }
  for (size_t c = 1; c < runs.size(); ++c) {
    ASSERT_EQ(runs[0].size(), runs[c].size());
    for (size_t i = 0; i < runs[0].size(); ++i)
      ASSERT_EQ(runs[0][i], runs[c][i])
          << "config " << c << ": grad diverged at " << i;
  }
}

TEST(TapeGraph, ConvTrainStepBitIdenticalAcrossThreadsAndPool) {
  // A conv+elementwise composite trained for a few steps: parameters must
  // stay bitwise equal across thread counts and storage-pool modes.
  const auto run = [](const MatrixConfig& cfg) -> std::vector<float> {
    const TapeEnv env(cfg.threads, cfg.pool);
    Rng rng(99);
    Tensor x = Tensor::randn({2, 3, 8, 8}, rng, 1.0f);
    Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.3f, true);
    Tensor bias = Tensor::zeros({4}, true);
    std::vector<Tensor> params = {w, bias};
    nn::Sgd opt(params, 0.05f);
    for (int step = 0; step < 3; ++step) {
      opt.zero_grad();
      Tensor y = relu(conv2d(x, w, bias, 1, 1));
      sum(mul(y, y)).backward();
      opt.step();
    }
    std::vector<float> flat;
    for (const auto& p : params) {
      const auto v = p.to_vector();
      flat.insert(flat.end(), v.begin(), v.end());
    }
    return flat;
  };
  const auto baseline = run(kMatrix[0]);
  for (size_t c = 1; c < std::size(kMatrix); ++c)
    EXPECT_EQ(baseline, run(kMatrix[c])) << "config " << c;
}

// ---- bookkeeping: zero-alloc steady state -------------------------------

TEST(TapeGraph, PlanBookkeepingStopsAllocatingAfterWarmup) {
  const TapeEnv env(4);
  std::vector<Tensor> ws, xs;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(make_input({1024}, 60 + i, 0.5f));
    Rng rng(static_cast<std::uint64_t>(80 + i));
    xs.push_back(Tensor::randn({1024}, rng, 0.5f));
  }
  wide_branch_loss(ws, xs).backward();  // warm-up sizes every plan vector
  const std::int64_t after_warmup = Tape::current().plan_grow_events();
  for (int step = 0; step < 5; ++step) {
    for (auto& w : ws) w.zero_grad();
    wide_branch_loss(ws, xs).backward();
  }
  EXPECT_EQ(Tape::current().plan_grow_events(), after_warmup)
      << "backward() bookkeeping grew a plan vector in the steady state";
}

// ---- diagnostics under the storage sanitizer -----------------------------

TEST(TapeSanitize, RaceReportIsByteIdenticalAcrossPoolSizes) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // A backward closure with the classic forgotten-offset bug: every chunk
  // declares [0, end). With race tracking armed, parallel_for partitions
  // into a fixed chunk count, so the report (op name, tape node, chunk ids)
  // is byte-identical for 1 and 4 pool threads — never a schedule accident.
  const bool pool_prev = StoragePool::instance().enabled();
  const bool san_prev = sanitize::enabled();
  StoragePool::instance().set_enabled(true);
  sanitize::set_enabled(true);
  sanitize::set_throw_on_violation(true);
  sanitize::reset_counts();
  // One tensor shared by both runs: the report names the faulting buffer by
  // address, and `a`'s grad storage persists across backward calls, so the
  // two reports can only match if both runs follow one canonical schedule.
  Tensor a = make_input({1 << 20}, 55);
  const auto buggy_loss = [](const Tensor& in) {
    Tensor y = Tensor::make_result(
        in.shape(), {in}, [in](detail::TensorImpl& o) {
          auto ai = in.impl();
          ai->ensure_grad();
          float* ga = ai->grad.data();
          const auto n = static_cast<std::int64_t>(o.data.size());
          parallel_for(n, [&](std::int64_t, std::int64_t i1) {
            sanitize::note_parallel_write(ga, 0, i1);  // forgotten offset
          });
        });
    return sum(y);
  };
  std::string reports[2];
  const int pool_sizes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const TapeEnv env(pool_sizes[i]);
    a.zero_grad();
    try {
      buggy_loss(a).backward();
      ADD_FAILURE() << "expected a race violation, none was thrown";
    } catch (const check::CheckError& e) {
      reports[i] = e.what();
    }
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_NE(reports[0].find("sanitize[race]"), std::string::npos)
      << reports[0];
  sanitize::reset_counts();
  sanitize::set_enabled(san_prev);
  StoragePool::instance().set_enabled(pool_prev);
}

TEST(TapeSanitize, ParallelBackwardRunsCleanWithSanitizerArmed) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // TSan-facing stress: redzone/lifetime/refcount checks stay armed while
  // race tracking is OFF, so each backward closure's parallel_for genuinely
  // fans its chunks across 4 workers with the checker watching the pooled
  // buffers. Arms of 2^17 floats split into four elementwise-grain chunks.
  const bool pool_prev = StoragePool::instance().enabled();
  const bool san_prev = sanitize::enabled();
  StoragePool::instance().set_enabled(true);
  sanitize::set_enabled(true);
  sanitize::set_race_tracking(false);
  sanitize::set_throw_on_violation(true);
  sanitize::reset_counts();
  {
    const TapeEnv env(4);
    std::vector<Tensor> ws, xs;
    for (int i = 0; i < 4; ++i) {
      ws.push_back(make_input({1 << 17}, 70 + i, 0.5f));
      Rng rng(static_cast<std::uint64_t>(75 + i));
      xs.push_back(Tensor::randn({1 << 17}, rng, 0.5f));
    }
    for (int step = 0; step < 8; ++step) {
      for (auto& w : ws) w.zero_grad();
      wide_branch_loss(ws, xs).backward();
    }
    StoragePool::instance().verify_cached_guards();
  }
  const auto counts = sanitize::counts();
  EXPECT_EQ(counts.total(), 0)
      << "sanitizer violations during parallel backward";
  EXPECT_GT(counts.redzone_checks, 0)
      << "checker never actually verified a redzone";
  sanitize::set_race_tracking(true);
  sanitize::set_enabled(san_prev);
  StoragePool::instance().set_enabled(pool_prev);
}

// ---- retire semantics ---------------------------------------------------

TEST(TapeRetire, RetiredGraphSurvivorActsAsLeaf) {
  const TapeEnv env(4);
  Tensor a = make_input({8}, 88);
  Tensor y = mul(a, a);
  sum(y).backward();
  EXPECT_EQ(Tape::current().recorded_nodes(), 0) << "tape not retired";
  // A survivor of the retired graph acts as a leaf in the next graph:
  // gradient flow stops at it instead of re-running retired closures.
  a.zero_grad();
  Tensor z = sum(mul(y, y));
  z.backward();
  const auto ga = a.grad().to_vector();
  for (const float g : ga) EXPECT_EQ(g, 0.0f);
  const auto gy = y.grad().to_vector();
  EXPECT_EQ(gy.size(), static_cast<size_t>(y.numel()));
}

TEST(TapeRetire, EscapedIntermediateKeepsItsValuesAcrossLaterSteps) {
  const TapeEnv env(1);
  Tensor a = make_input({512}, 30, 0.5f);
  Tensor y = mul(a, a);  // intermediate the caller keeps past the step
  sum(y).backward();     // retires the tape; y's handle keeps its buffer
  const std::vector<float> snapshot = y.to_vector();
  // More steps over the same bucket size: y's buffer must never be handed
  // out again while y lives.
  for (int step = 0; step < 4; ++step) {
    a.zero_grad();
    sum(relu(mul(a, a))).backward();
  }
  EXPECT_EQ(y.to_vector(), snapshot);
  // Once y drops, its buffer recycles like any other.
  y = Tensor();
  for (int step = 0; step < 3; ++step) {
    a.zero_grad();
    sum(relu(mul(a, a))).backward();
  }
}

TEST(TapeRetire, BackwardFromLeafLeavesRecordedGraphLive) {
  const TapeEnv env(1);
  Tensor a = make_input({16}, 89);
  Tensor loss = sum(mul(a, a));
  // A detached scalar backward must not retire the recorded graph.
  Tensor detached = Tensor::scalar(3.0f, true);
  detached.backward();
  EXPECT_GT(Tape::current().recorded_nodes(), 0);
  a.zero_grad();
  loss.backward();  // the real graph still executes fully
  const auto ga = a.grad().to_vector();
  const auto av = a.to_vector();
  for (size_t i = 0; i < ga.size(); ++i)
    EXPECT_NEAR(ga[i], 2.0f * av[i], 1e-4f);
}

// ---- multi-root backward (Tensor::backward_multi) ------------------------

/// Two scalar heads over a shared trunk: head1 = sum(relu(w*x)),
/// head2 = sum((w*x)^2) — both consume the same intermediate, so both heads'
/// closures accumulate into one shared parent gradient.
void two_head_graph(Tensor& w, Tensor& x, Tensor& head1, Tensor& head2) {
  Tensor trunk = mul(w, x);
  head1 = sum(relu(trunk));
  head2 = sum(mul(trunk, trunk));
}

TEST(TapeMultiRoot, TwoHeadGradsBitIdenticalAcrossThreadsAndPool) {
  std::vector<std::vector<float>> runs;
  for (const MatrixConfig& cfg : kMatrix) {
    const TapeEnv env(cfg.threads, cfg.pool);
    Tensor w = make_input({256}, 101, 0.5f);
    Tensor x = make_input({256}, 102, 0.5f);
    Tensor head1, head2;
    two_head_graph(w, x, head1, head2);
    Tensor::backward_multi({head1, head2});
    std::vector<float> flat = w.grad().to_vector();
    const auto gx = x.grad().to_vector();
    flat.insert(flat.end(), gx.begin(), gx.end());
    runs.push_back(std::move(flat));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[0].size(), runs[i].size());
    EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[i].data(),
                             runs[0].size() * sizeof(float)))
        << "config " << i << " diverged from config 0";
  }
}

TEST(TapeMultiRoot, MatchesBackwardOfExplicitSum) {
  // d(h1 + h2)/dθ computed by one multi-root pass must equal the gradient
  // of the literal sum node: the add's backward scatters the same seed the
  // multi-root path plants directly.
  const TapeEnv env(4);
  Tensor w1 = make_input({64}, 103, 0.5f);
  Tensor x1 = make_input({64}, 104, 0.5f);
  Tensor h1a, h2a;
  two_head_graph(w1, x1, h1a, h2a);
  Tensor::backward_multi({h1a, h2a});
  const auto gw_multi = w1.grad().to_vector();

  Tensor w2 = make_input({64}, 103, 0.5f);
  Tensor x2 = make_input({64}, 104, 0.5f);
  Tensor h1b, h2b;
  two_head_graph(w2, x2, h1b, h2b);
  add(h1b, h2b).backward();
  const auto gw_sum = w2.grad().to_vector();
  ASSERT_EQ(gw_multi.size(), gw_sum.size());
  EXPECT_EQ(0, std::memcmp(gw_multi.data(), gw_sum.data(),
                           gw_multi.size() * sizeof(float)));
}

TEST(TapeMultiRoot, DuplicateRootAccumulatesItsSeed) {
  const TapeEnv env(1);
  Tensor a = make_input({32}, 105, 0.5f);
  Tensor loss = sum(mul(a, a));
  Tensor::backward_multi({loss, loss});
  const auto g = a.grad().to_vector();
  const auto av = a.to_vector();
  // Seed 2.0 -> gradient 2 * 2a, exactly (power-of-two scaling).
  for (size_t i = 0; i < g.size(); ++i)
    EXPECT_EQ(g[i], 4.0f * av[i]);
}

TEST(TapeMultiRoot, LeafRootIsSeededWhileTapedRootPropagates) {
  const TapeEnv env(1);
  Tensor a = make_input({16}, 107, 0.5f);
  Tensor leaf = Tensor::scalar(2.0f, /*requires_grad=*/true);
  Tensor loss = sum(mul(a, a));
  Tensor::backward_multi({loss, leaf});
  EXPECT_EQ(leaf.grad().item(), 1.0f);
  const auto g = a.grad().to_vector();
  const auto av = a.to_vector();
  for (size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], 2.0f * av[i]);
}

TEST(TapeMultiRoot, InteriorRootReceivesSeedOnTopOfScatteredGradient) {
  // head2 depends on head1's subgraph THROUGH trunk, and head1 itself is a
  // root: an interior-ish mix. Use y = sum(x^2), roots {y, z} with
  // z = sum(relu(x)): gradient = 2x + relu'(x).
  const TapeEnv env(1);
  Tensor x = make_input({64}, 109, 0.5f);
  Tensor y = sum(mul(x, x));
  Tensor z = sum(relu(x));
  Tensor::backward_multi({y, z});
  const auto g = x.grad().to_vector();
  const auto xv = x.to_vector();
  for (size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(g[i], 2.0f * xv[i] + (xv[i] > 0.0f ? 1.0f : 0.0f), 1e-5f);
}

TEST(TapeMultiRoot, UnionPlanCountsSharedSubgraphOnce) {
  const TapeEnv env(1);
  Tensor w = make_input({64}, 111, 0.5f);
  Tensor x = make_input({64}, 112, 0.5f);
  Tensor head1, head2;
  two_head_graph(w, x, head1, head2);
  // Nodes: mul(trunk), relu, sum(h1), mul(sq), sum(h2) = 5 — the shared
  // trunk appears once in the union plan, not per root.
  Tensor::backward_multi({head1, head2});
  EXPECT_EQ(Tape::current().last_plan().nodes, 5);
}

TEST(TapeMultiRoot, PlanBookkeepingStaysZeroAllocAfterWarmup) {
  const TapeEnv env(4);
  auto run = [&] {
    Tensor w = make_input({128}, 113, 0.5f);
    Tensor x = make_input({128}, 114, 0.5f);
    Tensor head1, head2;
    two_head_graph(w, x, head1, head2);
    Tensor::backward_multi({head1, head2});
  };
  run();
  run();
  const std::int64_t after_warmup = Tape::current().plan_grow_events();
  for (int i = 0; i < 3; ++i) run();
  EXPECT_EQ(Tape::current().plan_grow_events(), after_warmup)
      << "multi-root planning must reuse the plan scratch vectors";
}

}  // namespace
}  // namespace mfa
