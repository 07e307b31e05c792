// Tests for the storage sanitizer (common/sanitize.h + the hooks in
// tensor/storage.cpp and common/thread_pool.cpp).
//
// The four defect classes — redzone overrun, stale-handle lifetime, declared
// parallel-write overlap, and refcount discipline — are each manufactured
// deliberately and must be caught DETERMINISTICALLY: the same defect, the
// same report, under MFA_THREADS 1 and 4 (the suite runs every detection
// test at both pool sizes). A clean 2-epoch training run must report zero
// violations while the checker demonstrably looked (redzone_checks > 0).
//
// The defects are manufactured through the sanitize_* test hooks on Storage,
// which keep the underlying memory valid (blocks recycle into the pool's
// free lists) — exactly the corruption family ASan cannot see. The pool is
// forced ON for those tests: with MFA_POOL=off a released block is a real
// heap free and touching it would be genuine UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/sanitize.h"
#include "common/thread_pool.h"
#include "models/congestion_model.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace mfa {
namespace {

using tensor::Storage;
using tensor::StoragePool;

/// Forces pool + checker on (throwing mode), pins the thread-pool size, and
/// restores the ambient configuration on scope exit. Counters are reset so
/// each test asserts on its own violations only.
class SanitizeEnv {
 public:
  explicit SanitizeEnv(int threads)
      : pool_prev_(StoragePool::instance().enabled()),
        san_prev_(sanitize::enabled()),
        throw_prev_(sanitize::throw_on_violation()),
        threads_prev_(common::ThreadPool::instance().size()) {
    StoragePool::instance().set_enabled(true);
    sanitize::set_enabled(true);
    sanitize::set_throw_on_violation(true);
    sanitize::reset_counts();
    common::ThreadPool::instance().resize_for_testing(threads);
  }
  ~SanitizeEnv() {
    common::ThreadPool::instance().resize_for_testing(threads_prev_);
    sanitize::set_throw_on_violation(throw_prev_);
    sanitize::set_enabled(san_prev_);
    StoragePool::instance().set_enabled(pool_prev_);
    common::FaultInjector::instance().reset();
  }

 private:
  bool pool_prev_;
  bool san_prev_;
  bool throw_prev_;
  int threads_prev_;
};

/// Runs `fn`, which must throw check::CheckError, and returns the message.
template <typename Fn>
std::string capture_violation(Fn&& fn) {
  try {
    fn();
  } catch (const check::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a sanitizer CheckError, none was thrown";
  return {};
}

class SanitizeDetect : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!sanitize::compiled_in())
      GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  }
};

// ---- defect class 1: redzone overrun ------------------------------------

TEST_P(SanitizeDetect, RedzoneOverrunIsCaught) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(32, 0.0f);  // exact bucket: capacity == 32
  s.data()[32] = 1.0f;                  // one float past the end
  const std::string msg =
      capture_violation([&] { s.verify_guards(); });
  EXPECT_NE(msg.find("sanitize[redzone]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("past the end"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().redzone, 1);
  // The report repainted the zone: the next check is clean (one report per
  // corruption, not one per sweep).
  EXPECT_NO_THROW(s.verify_guards());
  EXPECT_EQ(sanitize::counts().redzone, 1);
}

TEST_P(SanitizeDetect, RedzoneUnderrunIsCaught) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(64, 0.0f);
  s.data()[-1] = -1.0f;  // into the leading guard zone
  const std::string msg =
      capture_violation([&] { s.verify_guards(); });
  EXPECT_NE(msg.find("sanitize[redzone]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("before float 0"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().redzone, 1);
}

TEST_P(SanitizeDetect, CachedBlockSweepFindsStaleWriteIntoReleasedBlock) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(256, 0.0f);
  float* stale = s.data();
  s.reset();             // block parks on a free list, memory stays mapped
  stale[256] = 3.0f;     // write through the stale pointer past the end
  EXPECT_THROW(StoragePool::instance().verify_cached_guards(),
               check::CheckError);
  EXPECT_EQ(sanitize::counts().redzone, 1);
}

// ---- defect class 2: stale-handle lifetime ------------------------------

TEST_P(SanitizeDetect, StaleHandleReadIsCaught) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(64, 1.0f);
  s.sanitize_corrupt_release();          // block recycles under the handle
  Storage t = Storage::full(64, 2.0f);   // typically reacquires that block
  const std::string msg = capture_violation([&] { (void)s.data(); });
  EXPECT_NE(msg.find("sanitize[lifetime]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("generation"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().lifetime, 1);
  s.sanitize_abandon();  // re-balance before scope exit
}

TEST_P(SanitizeDetect, StaleHandleReportNamesTheCurrentOp) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(64, 1.0f);
  s.sanitize_corrupt_release();
  std::string msg;
  {
    const sanitize::OpScope op_scope("conv2d", 7);
    msg = capture_violation([&] { (void)s.begin(); });
  }
  EXPECT_NE(msg.find("op conv2d"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tape node #7"), std::string::npos) << msg;
  s.sanitize_abandon();
}

// ---- defect class 3: overlapping parallel writes ------------------------

TEST_P(SanitizeDetect, OverlappingParallelWritesAreCaught) {
  const SanitizeEnv env(GetParam());
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  float* p = out.data();
  // Buggy kernel: every chunk declares (and would write) [0, end) instead of
  // its own [begin, end) — the classic forgotten-offset bug. The overlap is
  // declared, so it is reported even though no two chunks ever actually
  // interleaved on this schedule.
  const std::string msg = capture_violation([&] {
    parallel_for(kN, [&](std::int64_t, std::int64_t i1) {
      sanitize::note_parallel_write(p, 0, i1);
    });
  });
  EXPECT_NE(msg.find("sanitize[race]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overlapping parallel writes"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().race, 1);
}

TEST_P(SanitizeDetect, DisjointParallelWritesAreClean) {
  const SanitizeEnv env(GetParam());
  constexpr std::int64_t kN = 1 << 20;
  Storage out = Storage::full(kN, 0.0f);
  float* p = out.data();
  EXPECT_NO_THROW(parallel_for(kN, [&](std::int64_t i0, std::int64_t i1) {
    sanitize::note_parallel_write(p, i0, i1);
    for (std::int64_t i = i0; i < i1; ++i) p[i] = 1.0f;
  }));
  EXPECT_EQ(sanitize::counts().race, 0);
}

TEST(SanitizeSchedule, RaceReportIsIdenticalForEveryPoolSize) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // The same buggy kernel on the same buffer must produce byte-identical
  // reports with 1 worker and 4 workers: chunk identity is the chunk's begin
  // index under a fixed virtual partition, never a thread id or a schedule
  // accident.
  constexpr std::int64_t kN = 1 << 20;
  std::string reports[2];
  const int sizes[2] = {1, 4};
  const SanitizeEnv outer(1);
  Storage out = Storage::full(kN, 0.0f);  // keep one buffer: same address
  float* p = out.data();
  for (int i = 0; i < 2; ++i) {
    common::ThreadPool::instance().resize_for_testing(sizes[i]);
    reports[i] = capture_violation([&] {
      parallel_for(kN, [&](std::int64_t, std::int64_t i1) {
        sanitize::note_parallel_write(p, 0, i1);
      });
    });
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(SanitizeSchedule, OverlappingScatterRaceReportIsByteIdentical) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // A buggy variant of the slot-partitioned scatter accumulation
  // (tensor/ops_sparse.cpp): each slot declares the WHOLE accumulator
  // instead of its own [slot*rd, (slot+1)*rd) stripe — the forgotten-offset
  // bug the real kernel's note_parallel_write guards against. The report
  // must be byte-identical across pool sizes, because slot identity comes
  // from the fixed virtual partition, not the worker schedule.
  constexpr std::int64_t kSlots = 16;
  constexpr std::int64_t kRd = 8 * 4;  // rows x row width
  std::string reports[2];
  const int sizes[2] = {1, 4};
  const SanitizeEnv outer(1);
  Storage acc = Storage::full(kSlots * kRd, 0.0f);  // one buffer: same address
  float* av = acc.data();
  for (int i = 0; i < 2; ++i) {
    common::ThreadPool::instance().resize_for_testing(sizes[i]);
    reports[i] = capture_violation([&] {
      parallel_for(
          kSlots,
          [&](std::int64_t, std::int64_t s1) {
            sanitize::note_parallel_write(av, 0, s1 * kRd);
          },
          /*grain=*/1);
    });
  }
  EXPECT_NE(reports[0].find("sanitize[race]"), std::string::npos)
      << reports[0];
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(SanitizeSchedule, RealScatterOpsReportZeroRacesUnderParallelPool) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // The shipping sparse ops must pass their own declared-write audit: a
  // forward+backward pass over every reduction-bearing op with 4 workers
  // reports zero violations while the race checker demonstrably ran.
  const SanitizeEnv env(4);
  Rng rng(23);
  Tensor x = Tensor::randn({64, 8}, rng, 1.0f, /*requires_grad=*/true);
  std::vector<float> ids(256);
  for (auto& id : ids) id = static_cast<float>(rng.uniform_int(0, 63));
  const Tensor index = Tensor::from_data({256}, std::move(ids));
  Tensor pin = ops::gather_rows(x, index);
  Tensor net = ops::segment_mean(pin, index, 64);
  Tensor cells = ops::scatter_add_rows(ops::gather_rows(net, index), index, 64);
  ops::sum(ops::mul(cells, cells)).backward();
  const auto c = sanitize::counts();
  EXPECT_EQ(c.race, 0) << "declared parallel writes overlap in a sparse op";
  EXPECT_EQ(c.total(), 0);
}

TEST(SanitizeSchedule, SoftmaxReportsZeroRacesUnderParallelPool) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  // softmax splits its rows into chunks of whole outer slices, forward and
  // backward; with 4 workers and the race checker armed, both shapes below
  // split into several chunks and every chunk's declared writes must stay
  // disjoint.
  const SanitizeEnv env(4);
  ASSERT_TRUE(sanitize::race_check_active());
  Rng rng(29);
  Tensor rows = Tensor::randn({16, 64, 64}, rng, 2.0f, /*requires_grad=*/true);
  Tensor cols = Tensor::randn({128, 64, 8}, rng, 2.0f, /*requires_grad=*/true);
  Tensor w_rows = Tensor::randn(rows.shape(), rng);
  Tensor w_cols = Tensor::randn(cols.shape(), rng);
  ops::sum(ops::add(ops::sum(ops::mul(ops::softmax(rows, 2), w_rows)),
                    ops::sum(ops::mul(ops::softmax(cols, 1), w_cols))))
      .backward();
  const auto c = sanitize::counts();
  EXPECT_EQ(c.race, 0) << "declared parallel writes overlap in softmax";
  EXPECT_EQ(c.total(), 0);
}

// ---- defect class 4: refcount discipline --------------------------------

TEST_P(SanitizeDetect, DoubleReleaseIsCaught) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(128, 0.0f);
  s.sanitize_corrupt_release();  // refcount 1 -> 0, block recycles
  const std::string msg =
      capture_violation([&] { s.sanitize_corrupt_release(); });
  EXPECT_NE(msg.find("sanitize[refcount]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("double release"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().refcount, 1);
  s.sanitize_abandon();
}

TEST_P(SanitizeDetect, LeakAuditReportsGrowthPastBaseline) {
  const SanitizeEnv env(GetParam());
  auto& pool = StoragePool::instance();
  const std::int64_t baseline = pool.stats().live_floats;
  Storage s = Storage::full(1024, 0.0f);
  const std::string msg = capture_violation(
      [&] { pool.audit_leaks(baseline, "LeakAudit test scope"); });
  EXPECT_NE(msg.find("sanitize[leak]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("LeakAudit test scope"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().leak, 1);
  s.reset();
  EXPECT_NO_THROW(pool.audit_leaks(baseline, "LeakAudit test scope"));
  EXPECT_EQ(sanitize::counts().leak, 1);
}

// ---- self-test via fault injection --------------------------------------

TEST_P(SanitizeDetect, FaultInjectedRedzoneReportFiresWithoutRealCorruption) {
  const SanitizeEnv env(GetParam());
  Storage s = Storage::full(32, 0.0f);
  common::FaultInjector::instance().arm_once("sanitize.redzone_corrupt");
  const std::string msg =
      capture_violation([&] { s.verify_guards(); });
  EXPECT_NE(msg.find("fault-injected self-test"), std::string::npos) << msg;
  EXPECT_EQ(sanitize::counts().redzone, 1);
  EXPECT_NO_THROW(s.verify_guards());  // disarmed after the single fire
}

// ---- count-only mode ----------------------------------------------------

TEST_P(SanitizeDetect, CountOnlyModeRecordsWithoutThrowing) {
  const SanitizeEnv env(GetParam());
  sanitize::set_throw_on_violation(false);
  Storage s = Storage::full(32, 0.0f);
  s.data()[32] = 1.0f;
  EXPECT_NO_THROW(s.verify_guards());
  EXPECT_EQ(sanitize::counts().redzone, 1);
}

// ---- clean pipeline: zero violations ------------------------------------

TEST_P(SanitizeDetect, CleanTwoEpochTrainReportsZeroViolations) {
  const SanitizeEnv env(GetParam());
  Rng rng(17);
  std::vector<train::Sample> samples;
  for (int i = 0; i < 4; ++i) {
    train::Sample s;
    s.features = Tensor::uniform({6, 32, 32}, rng, 0.0f, 1.0f);
    s.label = Tensor::zeros({32, 32});
    const float* src = s.features.data() + 3 * 32 * 32;
    for (std::int64_t j = 0; j < 32 * 32; ++j)
      s.label.data()[j] = src[j] > 0.5f ? 2.0f : 0.0f;
    samples.push_back(std::move(s));
  }
  models::ModelConfig config;
  config.grid = 32;
  config.base_channels = 4;
  config.transformer_layers = 1;
  config.seed = 11;
  auto model = models::make_model("ours", config);
  train::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 2;
  topt.seed = 1;
  sanitize::reset_counts();
  train::Trainer::fit(*model, samples, topt);
  StoragePool::instance().verify_cached_guards();
  const auto c = sanitize::counts();
  EXPECT_EQ(c.total(), 0)
      << "redzone=" << c.redzone << " lifetime=" << c.lifetime
      << " race=" << c.race << " refcount=" << c.refcount
      << " leak=" << c.leak;
  EXPECT_GT(c.redzone_checks, 0)
      << "the checker must have actually swept guard zones during training";
}

INSTANTIATE_TEST_SUITE_P(Threads, SanitizeDetect, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// ---- compile gate -------------------------------------------------------

TEST(Sanitize, CompileGateMatchesBuildMode) {
#if !defined(NDEBUG) || defined(MFA_FORCE_SANITIZE_STORAGE)
  EXPECT_TRUE(sanitize::compiled_in());
#else
  EXPECT_FALSE(sanitize::compiled_in());
  // Everything must be inert no-ops: enabling is refused, hooks do nothing.
  sanitize::set_enabled(true);
  EXPECT_FALSE(sanitize::enabled());
  Storage s = Storage::full(32, 0.0f);
  EXPECT_NO_THROW(s.verify_guards());
  EXPECT_EQ(sanitize::counts().total(), 0);
  EXPECT_EQ(sanitize::counts().redzone_checks, 0);
#endif
}

TEST(Sanitize, ObsRegistryExportsViolationCounters) {
  if (!sanitize::compiled_in())
    GTEST_SKIP() << "storage sanitizer compiled out (NDEBUG build)";
  const SanitizeEnv env(1);
  sanitize::set_throw_on_violation(false);
  Storage s = Storage::full(32, 0.0f);
  s.data()[32] = 1.0f;
  s.verify_guards();
  const std::string json = obs::Registry::instance().metrics_json();
  EXPECT_NE(json.find("sanitize.violations_redzone"), std::string::npos)
      << json;
  EXPECT_NE(json.find("sanitize.redzone_checks"), std::string::npos) << json;
}

}  // namespace
}  // namespace mfa
