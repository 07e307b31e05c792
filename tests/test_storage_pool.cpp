// Tests for the pooled tensor storage layer (tensor/storage.h): handle
// semantics, free-list recycling, bit-identical numerics with the pool on
// vs off, steady-state high-water and heap-allocation bounds, grad release
// during backward(), and a concurrency stress meant to run under the TSan
// preset too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "models/blocks.h"
#include "models/congestion_model.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "train/trainer.h"

namespace mfa::tensor {
namespace {

/// Restores the pool's enabled flag on scope exit (tests toggle it, and the
/// singleton outlives every test).
struct PoolEnabledGuard {
  PoolEnabledGuard() : prev(StoragePool::instance().enabled()) {}
  ~PoolEnabledGuard() { StoragePool::instance().set_enabled(prev); }
  bool prev;
};

TEST(Storage, AssignFillCopyBasics) {
  Storage s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.data(), nullptr);
  s.assign(10, 1.5f);
  ASSERT_EQ(s.size(), 10u);
  for (const float v : s) EXPECT_EQ(v, 1.5f);
  s.fill(2.0f);
  EXPECT_EQ(s[9], 2.0f);
  const std::vector<float> src = {1, 2, 3, 4};
  s.copy_from(src.data(), 4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.to_vector(), src);
  s.reset();
  EXPECT_TRUE(s.empty());
}

TEST(Storage, CopyHandleSharesUntilReassigned) {
  Storage a = Storage::full(8, 3.0f);
  EXPECT_FALSE(a.shared());
  Storage b = a;
  EXPECT_TRUE(a.shared());
  EXPECT_TRUE(b.shared());
  EXPECT_EQ(a.data(), b.data()) << "copying a handle must share the block";
  // assign() on a shared handle detaches: the sibling keeps the old block.
  b.assign(8, 7.0f);
  EXPECT_NE(a.data(), b.data());
  EXPECT_FALSE(a.shared());
  EXPECT_EQ(a[0], 3.0f);
  EXPECT_EQ(b[0], 7.0f);
  // copy_from() on a shared handle also detaches (deep-copy semantics).
  Storage c = a;
  c.copy_from(b);
  EXPECT_NE(c.data(), a.data());
  EXPECT_EQ(c[0], 7.0f);
  EXPECT_EQ(a[0], 3.0f);
}

TEST(Storage, MoveTransfersOwnership) {
  Storage a = Storage::full(16, 1.0f);
  const float* p = a.data();
  Storage b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
  Storage c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_FALSE(c.shared());
}

TEST(StoragePool, ReleasedBlockIsReusedNotReallocated) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  pool.trim();
  pool.reset_stats();
  { Storage s = Storage::full(1000, 0.0f); }  // release parks the block
  auto st = pool.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.releases, 1u);
  // Same bucket (1000 -> 1024 floats) must come back from the free list.
  Storage t = Storage::full(700, 0.0f);
  st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u) << "second acquisition must not hit the heap";
}

TEST(Storage, ZeroFillOfARecycledDirtyBlockIsBitExact) {
  // +0.0f fills take a memset, every other value std::fill. A recycled block
  // still holds its last owner's bytes, so the fill alone must clear them,
  // and -0.0f must keep its sign bit rather than take the memset.
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  pool.trim();
  constexpr std::int64_t n = 1000;  // bucket of 1024 floats
  const auto make_dirty = [](Storage& s) {
    s.fill(1.0f);
    for (std::size_t i = 0; i < s.size(); i += 3)
      s[i] = std::bit_cast<float>(std::uint32_t{0x7fc0beefu});  // NaN payload
  };
  const auto every_word_is = [](const Storage& s, std::uint32_t bits) {
    for (const float v : s)
      if (std::bit_cast<std::uint32_t>(v) != bits) return false;
    return true;
  };
  const float* block = nullptr;
  {
    Storage dirty;
    dirty.assign(n, 1.0f);
    make_dirty(dirty);
    block = dirty.data();
  }  // parks the dirty block in this thread's cache

  Storage s;
  s.assign(n, 0.0f);
  EXPECT_EQ(s.data(), block) << "the same bucket must reuse the dirty block";
  EXPECT_TRUE(every_word_is(s, 0u)) << "assign(n, 0.0f)";
  make_dirty(s);
  s.fill(0.0f);
  EXPECT_TRUE(every_word_is(s, 0u)) << "fill(0.0f)";
  make_dirty(s);
  s.reset();

  Storage neg;
  neg.assign(n, -0.0f);
  EXPECT_EQ(neg.data(), block);
  EXPECT_TRUE(every_word_is(neg, 0x80000000u)) << "assign(n, -0.0f)";
}

TEST(StoragePool, DisabledBypassesFreeLists) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(false);
  pool.reset_stats();
  { Storage s = Storage::full(1000, 0.0f); }
  { Storage s = Storage::full(1000, 0.0f); }
  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 2u) << "every acquisition must be a heap allocation";
  EXPECT_EQ(st.heap_frees, 2u) << "every release must free immediately";
  EXPECT_EQ(st.releases, 0u);
}

TEST(StoragePool, ToggleWithOutstandingBuffersIsSafe) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  Storage pooled = Storage::full(64, 1.0f);  // bucket-tagged block
  pool.set_enabled(false);
  Storage heap = Storage::full(64, 2.0f);  // exact heap block (bucket -1)
  pool.set_enabled(true);
  // Both release under the opposite flag than they were acquired with; the
  // origin tag on the block keeps the accounting straight (no crash, no
  // double free — ASan would catch either).
  heap.reset();
  pool.set_enabled(false);
  pooled.reset();
}

TEST(StoragePool, ZeroSizeAssignHoldsNoBlock) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  pool.reset_stats();
  Storage s;
  s.assign(0, 0.0f);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.data(), nullptr);
  EXPECT_EQ(pool.stats().misses, 0u);
}

// ---- numerics: pool on vs off must be bit-identical ----

namespace {

models::ModelConfig tiny_config() {
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 11;
  return config;
}

std::vector<train::Sample> tiny_samples(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<train::Sample> samples;
  for (int i = 0; i < n; ++i) {
    train::Sample s;
    s.features = Tensor::uniform({6, 32, 32}, rng, 0.0f, 1.0f);
    s.label = Tensor::zeros({32, 32});
    const float* rudy = s.features.data() + 3 * 32 * 32;
    for (std::int64_t j = 0; j < 32 * 32; ++j)
      s.label.data()[j] = rudy[j] > 0.5f ? 2.0f : 0.0f;
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Trains a fresh tiny model for two epochs and returns (final loss, all
/// parameter bytes) for bitwise comparison.
std::pair<double, std::vector<float>> train_fingerprint() {
  auto model = models::make_model("unet", tiny_config());
  train::TrainOptions options;
  options.epochs = 2;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.seed = 5;
  const auto report =
      train::Trainer::fit_resumable(*model, tiny_samples(4, 3), options);
  std::vector<float> params;
  for (const auto& p : model->network().parameters()) {
    const auto v = p.to_vector();
    params.insert(params.end(), v.begin(), v.end());
  }
  return {report.final_loss, std::move(params)};
}

}  // namespace

TEST(StoragePool, TrainStepBitIdenticalPoolOnVsOff) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  const auto with_pool = train_fingerprint();
  pool.set_enabled(false);
  const auto without_pool = train_fingerprint();
  // Bit-identical: recycling buffers must not perturb a single ulp.
  EXPECT_EQ(with_pool.first, without_pool.first);
  ASSERT_EQ(with_pool.second.size(), without_pool.second.size());
  EXPECT_EQ(std::memcmp(with_pool.second.data(), without_pool.second.data(),
                        with_pool.second.size() * sizeof(float)),
            0)
      << "parameters diverged between pool on and off";
}

TEST(StoragePool, HighWaterStableAcrossEpochsNoLeak) {
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  auto model = models::make_model("unet", tiny_config());
  const auto samples = tiny_samples(4, 3);
  train::TrainOptions options;
  options.batch_size = 2;
  options.learning_rate = 5e-3f;
  options.seed = 5;
  const auto run_epochs = [&](std::int64_t n) {
    options.epochs = n;
    train::Trainer::fit_resumable(*model, samples, options);
  };
  run_epochs(2);  // warm-up: populates the free lists
  pool.reset_stats();
  run_epochs(6);  // steady state
  const auto st = pool.stats();
  const auto first_mark = st.live_floats_high_water;
  pool.reset_stats();
  run_epochs(6);  // identical workload again
  // No leak: the high-water mark over a second batch of identical epochs
  // must not exceed the first batch's (reset_stats re-bases the mark on the
  // current gauge, so monotonic growth — even one leaked buffer per epoch —
  // would show up here).
  EXPECT_LE(pool.stats().live_floats_high_water, first_mark)
      << "live high-water grew across identical epochs: buffers are leaking";
  // Steady state must be dominated by free-list hits, not heap traffic. Op
  // intermediates draw from the pool like every other buffer, so both
  // bounds cover them too.
  EXPECT_GT(st.hits, st.misses * 10)
      << "steady-state epochs should almost never touch the heap";
}

// ---- steady state: the pool removes >= 90% of heap allocations ----

namespace {

/// One repeatable step of each hot path bench_micro times, at its shapes:
/// a conv train step, the two predictors' inference, the sparse scatter
/// (forward + backward) and segment-sum ops over a duplicate-heavy index of
/// 4096 rows into 1024, and an MFA block train step.
std::function<void()> hot_path_step(const std::string& name) {
  Rng rng(2);
  if (name == "Conv2dTrainStep") {
    Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
    Tensor w = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
    return [x, w]() mutable {
      w.zero_grad();
      Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
      ops::sum(ops::mul(y, y)).backward();
    };
  }
  if (name == "MfaBlockTrainStep") {
    // bench_micro's BM_MfaBlockLevel1/1: the first MFA block of "ours" in a
    // training batch, forward and backward.
    auto block = std::make_shared<models::MfaBlock>(8, rng);
    Tensor x = Tensor::randn({4, 8, 32, 32}, rng);
    return [block, x] {
      block->zero_grad();
      Tensor y = block->forward(x);
      ops::sum(ops::mul(y, y)).backward();
    };
  }
  if (name == "PredictLevels" || name == "LhnnPredict") {
    models::ModelConfig config;
    config.grid = 32;
    config.transformer_layers = 1;
    std::shared_ptr<models::CongestionModel> model = models::make_model(
        name == "PredictLevels" ? "ours" : "lhnn", config);
    Tensor x = Tensor::uniform({1, 6, 32, 32}, rng, 0.0f, 1.0f);
    return [model, x] { model->predict_levels(x); };
  }
  const std::int64_t m = 1 << 12;
  const std::int64_t rows = m / 4;
  Tensor src = Tensor::randn({m, 16}, rng, 0.5f,
                             /*requires_grad=*/name == "ScatterAdd");
  std::vector<float> ids(static_cast<std::size_t>(m));
  for (auto& id : ids) id = static_cast<float>(rng.uniform_int(0, rows - 1));
  const Tensor index = Tensor::from_data({m}, std::move(ids));
  if (name == "ScatterAdd") {
    return [src, index, rows]() mutable {
      src.zero_grad();
      Tensor out = ops::scatter_add_rows(src, index, rows);
      ops::sum(ops::mul(out, out)).backward();
    };
  }
  return [src, index, rows] {
    NoGradGuard no_grad;
    ops::segment_sum(src, index, rows);
  };
}

/// Heap allocations (pool misses) over `steps` calls of `step`, after one
/// warm-up call that fills the free lists.
std::uint64_t heap_allocs(const std::function<void()>& step, bool pool_on,
                          int steps) {
  auto& pool = StoragePool::instance();
  pool.set_enabled(pool_on);
  step();
  pool.reset_stats();
  for (int i = 0; i < steps; ++i) step();
  return pool.stats().misses;
}

class PoolSteadyState : public ::testing::TestWithParam<const char*> {};

TEST_P(PoolSteadyState, HeapAllocsAtMostATenthOfPoolOff) {
  // The pool is toggled in-process, so the check runs whatever MFA_POOL
  // says (the ASan config runs the suite with the pool off too).
  PoolEnabledGuard guard;
  const auto step = hot_path_step(GetParam());
  constexpr int kSteps = 4;
  const std::uint64_t on = heap_allocs(step, /*pool_on=*/true, kSteps);
  const std::uint64_t off = heap_allocs(step, /*pool_on=*/false, kSteps);
  ASSERT_GT(off, 0u) << "the step allocates nothing even with the pool off";
  EXPECT_LE(on * 10, off) << "pool on: " << on << " heap allocations over "
                          << kSteps << " steps, pool off: " << off;
}

INSTANTIATE_TEST_SUITE_P(BenchMicroShapes, PoolSteadyState,
                         ::testing::Values("Conv2dTrainStep", "PredictLevels",
                                           "ScatterAdd", "SegmentSum",
                                           "LhnnPredict", "MfaBlockTrainStep"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace

// ---- the MFA position-attention map is never held three times ----

namespace {

/// Peak pooled floats live during `step` above what was live before it.
std::int64_t peak_live_floats_over(const std::function<void()>& step) {
  auto& pool = StoragePool::instance();
  pool.reset_stats();  // re-bases the high-water mark on the live gauge
  const std::int64_t before = pool.stats().live_floats;
  step();
  return pool.stats().live_floats_high_water - before;
}

}  // namespace

TEST(StoragePool, MfaBlockInferenceHoldsNoAttentionMap) {
  // The first MFA block of "ours" at batch 4: 8 channels at 32 x 32, so its
  // position-attention map P is [4, 1024, 1024]. An eval forward without a
  // tape walks P in row blocks of thread scratch and must never hold a
  // pooled buffer of P's size (the unfused chain held scores, P and Pᵀ).
  PoolEnabledGuard guard;
  StoragePool::instance().set_enabled(true);
  Rng rng(41);
  models::MfaBlock block(8, rng);
  block.train(false);
  const Tensor x = Tensor::randn({4, 8, 32, 32}, rng);
  constexpr std::int64_t kMapFloats = 4 * 1024 * 1024;  // N * L * L
  const std::int64_t peak = peak_live_floats_over([&] {
    NoGradGuard no_grad;
    block.forward(x);
  });
  EXPECT_LT(peak, kMapFloats) << "peak live floats " << peak;
}

TEST(StoragePool, MfaBlockTrainStepHoldsOneAttentionMap) {
  // Training keeps P for the backward and nothing else of its size: the
  // gradients of P and of the scores exist one row block at a time.
  PoolEnabledGuard guard;
  StoragePool::instance().set_enabled(true);
  Rng rng(43);
  models::MfaBlock block(8, rng);
  const Tensor x = Tensor::randn({4, 8, 32, 32}, rng);
  constexpr std::int64_t kMapFloats = 4 * 1024 * 1024;  // N * L * L
  const std::int64_t peak = peak_live_floats_over([&] {
    block.zero_grad();
    Tensor y = block.forward(x);
    ops::sum(ops::mul(y, y)).backward();
  });
  EXPECT_GE(peak, kMapFloats) << "the backward needs P";
  EXPECT_LT(peak, 2 * kMapFloats) << "peak live floats " << peak;
}

TEST(StoragePool, BackwardReleasesIntermediateGradsKeepsLeafGrads) {
  Rng rng(3);
  Tensor x = Tensor::uniform({4, 4}, rng, -1.0f, 1.0f, /*requires_grad=*/true);
  Tensor h = ops::relu(x);
  Tensor y = ops::mul(h, h);
  Tensor loss = ops::sum(y);
  loss.backward();
  // Intermediate tape nodes were retired during backward(): their gradient
  // buffers are back in the pool, not held until graph destruction.
  EXPECT_TRUE(h.impl()->grad.empty());
  EXPECT_TRUE(y.impl()->grad.empty());
  EXPECT_TRUE(loss.impl()->grad.empty());
  // The leaf keeps its gradient for the optimizer.
  ASSERT_EQ(x.impl()->grad.size(), x.impl()->data.size());
  const auto gx = x.grad().to_vector();
  const auto xv = x.to_vector();
  for (size_t i = 0; i < xv.size(); ++i) {
    const float expected = xv[i] > 0.0f ? 2.0f * xv[i] : 0.0f;
    EXPECT_NEAR(gx[i], expected, 1e-6f);
  }
}

TEST(StoragePool, ConcurrentParallelForAllocationStress) {
  // Meant for the TSan preset as much as the default build: many bodies
  // acquiring/releasing concurrently exercise the thread-cache front-end and
  // the global free-list under contention (blocks may be freed on another
  // thread than they were acquired on via the handoff vector below).
  PoolEnabledGuard guard;
  auto& pool = StoragePool::instance();
  pool.set_enabled(true);
  constexpr std::int64_t kTasks = 256;
  std::vector<Storage> handoff(static_cast<size_t>(kTasks));
  parallel_for(
      kTasks,
      [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t i = b0; i < b1; ++i) {
          Storage local = Storage::full(64 + (i % 7) * 100, 1.0f);
          Storage shared_copy = local;  // refcount traffic
          shared_copy.fill(static_cast<float>(i));
          handoff[static_cast<size_t>(i)] = std::move(local);
        }
      },
      /*grain=*/8);
  // Release every block from this thread, regardless of acquiring thread.
  for (auto& s : handoff) {
    ASSERT_FALSE(s.empty());
    s.reset();
  }
  // Counters must balance: everything acquired was released exactly once.
  const auto st = pool.stats();
  EXPECT_GE(st.live_floats, 0);
  EXPECT_GE(st.cached_floats, 0);
}

}  // namespace
}  // namespace mfa::tensor
