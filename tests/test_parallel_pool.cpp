// Persistent thread-pool behaviour: lazy construction, the n <= grain fast
// path, nested-region inlining, exception propagation from real workers,
// determinism across pool sizes, reuse after CheckError, and a concurrent
// submission stress run (exercised under TSan by the CI matrix).
//
// Tests that need actual workers resize the pool (this repo's CI box has one
// core, so the default pool is size 1) and restore the previous size before
// returning.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace mfa {
namespace {

using common::ThreadPool;

/// Restores the pool size a test changed, even on assertion failure.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(int size) : previous_(ThreadPool::instance().size()) {
    ThreadPool::instance().resize_for_testing(size);
  }
  ~PoolSizeGuard() { ThreadPool::instance().resize_for_testing(previous_); }

 private:
  int previous_;
};

// Must run before anything in this process enters a large parallel region:
// gtest runs each TEST in its own process under ctest discovery, so the
// assertion is reliable there (and harmless if the whole binary is run by
// hand, where an earlier test may already have built the pool).
TEST(PoolFastPath, SmallRangeNeverConstructsPool) {
  const bool pool_was_up = ThreadPool::initialized();
  std::vector<int> hit(100, 0);
  parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) hit[static_cast<size_t>(i)] = 1;
      },
      /*grain=*/1024);
  for (int h : hit) EXPECT_EQ(h, 1);
  if (!pool_was_up) {
    EXPECT_FALSE(ThreadPool::initialized())
        << "n <= grain must not touch (or lazily build) the pool";
  }
}

TEST(Pool, JobsRunCountsOnlyDispatchedRegions) {
  const PoolSizeGuard guard(4);
  auto& pool = ThreadPool::instance();
  const std::uint64_t before = pool.jobs_run();
  std::atomic<std::int64_t> sum{0};
  parallel_for(
      512, [&](std::int64_t b, std::int64_t e) { sum += e - b; },
      /*grain=*/1024);
  EXPECT_EQ(pool.jobs_run(), before) << "inline run must not hit the scheduler";
  parallel_for(
      4096, [&](std::int64_t b, std::int64_t e) { sum += e - b; },
      /*grain=*/64);
  EXPECT_EQ(pool.jobs_run(), before + 1);
  EXPECT_EQ(sum.load(), 512 + 4096);
}

TEST(Pool, SizeClampsLikeMfaThreads) {
  const int previous = ThreadPool::instance().size();
  ThreadPool::instance().resize_for_testing(100000);
  EXPECT_EQ(ThreadPool::instance().size(), 256);
  ThreadPool::instance().resize_for_testing(0);
  EXPECT_EQ(ThreadPool::instance().size(), 1);
  ThreadPool::instance().resize_for_testing(previous);
}

TEST(Pool, NestedParallelForRunsInline) {
  const PoolSizeGuard guard(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> nested_violations{0};
  parallel_for(
      8,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          outer_chunks.fetch_add(1);
          const auto outer_thread = std::this_thread::get_id();
          int inner_calls = 0;
          parallel_for(
              100000,
              [&](std::int64_t ib, std::int64_t ie) {
                ++inner_calls;
                // Inline means: one invocation, full range, same thread,
                // flagged as inside a region.
                if (ib != 0 || ie != 100000) nested_violations.fetch_add(1);
                if (std::this_thread::get_id() != outer_thread)
                  nested_violations.fetch_add(1);
                if (!ThreadPool::in_parallel_region())
                  nested_violations.fetch_add(1);
              },
              /*grain=*/1);
          if (inner_calls != 1) nested_violations.fetch_add(1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(outer_chunks.load(), 8);
  EXPECT_EQ(nested_violations.load(), 0);
}

TEST(Pool, ExceptionPropagatesFromWorkerThread) {
  const PoolSizeGuard guard(4);
  EXPECT_THROW(
      parallel_for(
          4096,
          [](std::int64_t b, std::int64_t) {
            if (b == 0) throw std::runtime_error("boom from a pool worker");
          },
          /*grain=*/16),
      std::runtime_error);
}

TEST(Pool, SurvivesCheckErrorAndStaysReusable) {
  const PoolSizeGuard guard(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        parallel_for(
            4096,
            [](std::int64_t b, std::int64_t) {
              MFA_CHECK(b != 0) << " synthetic invariant failure in worker";
            },
            /*grain=*/16),
        check::CheckError);
    // The pool must come back for normal work immediately afterwards.
    std::atomic<long long> sum{0};
    parallel_for(
        4096,
        [&](std::int64_t b, std::int64_t e) {
          long long local = 0;
          for (std::int64_t i = b; i < e; ++i) local += i;
          sum += local;
        },
        /*grain=*/16);
    EXPECT_EQ(sum.load(), 4096LL * 4095 / 2) << "round " << round;
  }
}

TEST(Pool, KernelsBitIdenticalAcrossPoolSizes) {
  // The GEMM/conv kernels promise a fixed per-element reduction order, and
  // softmax rows are independent of each other, so a size-1 pool (the
  // MFA_THREADS=1 configuration) must reproduce the parallel results bit for
  // bit — forward and backward.
  const auto compute = [] {
    Rng rng(7);
    Tensor a = Tensor::randn({37, 53}, rng);
    Tensor b = Tensor::randn({53, 41}, rng);
    a.set_requires_grad(true);
    Tensor mm = ops::matmul(a, b);
    Tensor x = Tensor::randn({3, 5, 12, 12}, rng);
    Tensor w = Tensor::randn({7, 5, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
    x.set_requires_grad(true);
    Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
    ops::sum(ops::add(ops::mul(y, y), ops::sum(mm))).backward();
    // Softmax over the last dim and over a middle dim, each large enough
    // for several row chunks at 4 workers; the weights make the grads
    // non-trivial.
    Tensor s_last = Tensor::randn({64, 48, 40}, rng, 3.0f, true);
    Tensor s_mid = Tensor::randn({256, 40, 12}, rng, 3.0f, true);
    const Tensor w_last = Tensor::randn(s_last.shape(), rng);
    const Tensor w_mid = Tensor::randn(s_mid.shape(), rng);
    Tensor p_last = ops::softmax(s_last, 2);
    Tensor p_mid = ops::softmax(s_mid, 1);
    ops::sum(ops::add(ops::sum(ops::mul(p_last, w_last)),
                      ops::sum(ops::mul(p_mid, w_mid))))
        .backward();
    std::vector<float> out = y.to_vector();
    const auto append = [&](const Tensor& t) {
      const auto v = t.to_vector();
      out.insert(out.end(), v.begin(), v.end());
    };
    append(mm);
    append(a.grad());
    append(x.grad());
    append(w.grad());
    append(p_last);
    append(p_mid);
    append(s_last.grad());
    append(s_mid.grad());
    return out;
  };
  std::vector<float> parallel_result, serial_result;
  {
    const PoolSizeGuard guard(4);
    parallel_result = compute();
  }
  {
    const PoolSizeGuard guard(1);
    serial_result = compute();
  }
  ASSERT_EQ(parallel_result.size(), serial_result.size());
  ASSERT_EQ(std::memcmp(parallel_result.data(), serial_result.data(),
                        parallel_result.size() * sizeof(float)),
            0)
      << "pool size must not change any bit of the kernel results";
}

TEST(Pool, ConcurrentCallersStress) {
  // Several top-level threads race parallel_for submissions: one wins the
  // pool, the rest run inline. Results must be right either way, and the
  // TSan CI configuration watches the hand-off. Also covered: pool reuse
  // under rapid back-to-back regions.
  const PoolSizeGuard guard(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<long long> sum{0};
        parallel_for(
            4096,
            [&](std::int64_t b, std::int64_t e) {
              long long local = 0;
              for (std::int64_t i = b; i < e; ++i) local += i;
              sum += local;
            },
            /*grain=*/64);
        if (sum.load() != 4096LL * 4095 / 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Scratch, ArenaReusesThreadLocalBuffers) {
  float* first = kernels::scratch(0, 128);
  ASSERT_NE(first, nullptr);
  first[0] = 42.0f;
  // Same slot, no growth: same buffer (grow-only contract).
  EXPECT_EQ(kernels::scratch(0, 64), first);
  EXPECT_EQ(kernels::scratch(0, 128), first);
  // Distinct slots never alias.
  float* other = kernels::scratch(1, 128);
  EXPECT_NE(other, first);
  // Growth may move the buffer but must keep it usable at the new size.
  float* grown = kernels::scratch(0, 4096);
  grown[4095] = 1.0f;
  EXPECT_EQ(grown[4095], 1.0f);
  EXPECT_THROW(kernels::scratch(kernels::kScratchSlots, 8), check::CheckError);
  EXPECT_THROW(kernels::scratch(-1, 8), check::CheckError);
}

TEST(Scratch, WorkersGetPrivateBuffers) {
  const PoolSizeGuard guard(4);
  // Each participating thread must see its own arena: write a distinct tag
  // through the slot and verify no other thread's tag leaks in.
  std::atomic<int> clashes{0};
  parallel_for(
      64,
      [&](std::int64_t b, std::int64_t e) {
        float* buf = kernels::scratch(2, 16);
        const float tag =
            static_cast<float>(std::hash<std::thread::id>{}(
                std::this_thread::get_id()) %
                               100003);
        for (int i = 0; i < 16; ++i) buf[i] = tag;
        for (std::int64_t it = b; it < e; ++it) {
          for (int i = 0; i < 16; ++i)
            if (buf[i] != tag) clashes.fetch_add(1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(clashes.load(), 0);
}

}  // namespace
}  // namespace mfa
