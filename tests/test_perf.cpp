// Timing gates. Each one asserts a ratio measured in pairs inside one
// process, so it holds on any host and needs no committed baseline. The
// binary is registered as the ctest entry `perf` under the `Perf` ctest
// configuration with RUN_SERIAL: plain `ctest` never runs it, and a perf run
// has the machine to itself. Run it in an optimised tree:
//
//   ctest -C Perf -L perf
//
// Both gates pin the kernel work pool at one thread: the obs gate times the
// calling thread's CPU clock, which only sees the whole step when the step
// runs inline, and the serving gate's 2x floor was set on a one-core host.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "models/congestion_model.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace mfa {
namespace {

/// Pins the kernel work pool at `n` threads for the scope of a test.
class PoolThreads {
 public:
  explicit PoolThreads(int n) : prev_(common::ThreadPool::instance().size()) {
    common::ThreadPool::instance().resize_for_testing(n);
  }
  ~PoolThreads() { common::ThreadPool::instance().resize_for_testing(prev_); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;

 private:
  int prev_;
};

/// CPU time of the calling thread in seconds. Time the thread spends
/// descheduled does not count, so other load on the host adds far less
/// noise than it does to wall time.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> xs) {
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

TEST(Perf, ObsOnTrainStepWithinTwoPercentOfObsOff) {
  const PoolThreads threads(1);
  const bool obs_prev = obs::enabled();
  Rng rng(2);
  Tensor x = Tensor::randn({4, 8, 64, 64}, rng);
  Tensor w = Tensor::randn({8, 8, 3, 3}, rng, 0.1f, /*requires_grad=*/true);
  static obs::Counter steps = obs::counter("perf.conv2d_train_steps");
  static obs::Gauge loss = obs::gauge("perf.conv2d_train_loss");
  // A conv train step instrumented the way the trainer is: one span, one
  // counter bump and one gauge set per step.
  const auto timed_step = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const double t0 = thread_cpu_seconds();
    {
      MFA_TRACE_SCOPE("perf.conv2d_train_step");
      w.zero_grad();
      Tensor y = ops::conv2d(x, w, Tensor(), 1, 1);
      Tensor l = ops::sum(ops::mul(y, y));
      l.backward();
      steps.add();
      loss.set(static_cast<double>(l.data()[0]));
    }
    return thread_cpu_seconds() - t0;
  };
  timed_step(true);  // warm-up: free lists, metric cells and the span ring
  timed_step(false);
  // 300 pairs (about 2.7 s): at 100 the median ranged up to +1.86% across
  // runs on a busy 4-vCPU KVM host, too close to the bound; at 300 it has
  // stayed within -0.57..+0.69%.
  constexpr int kPairs = 300;
  std::vector<double> ratios;
  for (int i = 0; i < kPairs; ++i) {
    // Alternate which side runs first so slow drift favours neither.
    const bool on_first = i % 2 == 0;
    const double first = timed_step(on_first);
    const double second = timed_step(!on_first);
    ratios.push_back(on_first ? first / second : second / first);
  }
  obs::set_enabled(obs_prev);
  const double overhead = median(ratios) - 1.0;
  std::printf("obs overhead %+.2f%% (median of %d paired ratios)\n",
              overhead * 100.0, kPairs);
  EXPECT_LE(overhead, 0.02) << "the step is " << overhead * 100.0
                            << "% slower with obs on (median of " << kPairs
                            << " paired thread-CPU-time ratios)";
}

struct ServeRun {
  double requests_per_second = 0.0;
  double mean_batch = 0.0;
  std::int64_t not_ok = 0;
};

/// Closed loop: `clients` threads each send `per_client` synchronous
/// predictions to a fresh server whose queue is deep enough never to shed.
ServeRun serve_closed_loop(int clients, int per_client, int max_batch) {
  // Transformer-heavy at a small grid, so the per-request dispatch cost
  // dominates and batching has something to win.
  models::ModelConfig config;
  config.grid = 16;
  config.base_channels = 2;
  config.transformer_layers = 4;
  config.transformer_heads = 2;
  serve::ServerOptions opt;
  opt.max_queue_depth = 4 * clients + 8;
  opt.max_batch = max_batch;
  opt.max_batch_wait_seconds = 1e-3;
  serve::Server server(models::make_model("ours", config), opt);

  // Warm-up outside the timed window: first-touch allocations, pool fill.
  constexpr int kWarmup = 4;
  for (int i = 0; i < kWarmup; ++i) {
    Rng rng(static_cast<std::uint64_t>(77 + i));
    server.predict({Tensor::uniform({6, 16, 16}, rng, 0.0f, 1.0f)});
  }

  std::atomic<std::int64_t> not_ok{0};
  // Start barrier: the clients wait until every thread exists, so the timed
  // window measures serving, not thread creation.
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(500 + c));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int m = 0; m < per_client; ++m) {
        const serve::Response r =
            server.predict({Tensor::uniform({6, 16, 16}, rng, 0.0f, 1.0f)});
        if (r.status != serve::Status::kOk) not_ok.fetch_add(1);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const serve::ServerStats stats = server.stats();
  server.shutdown();
  const double requests = static_cast<double>(clients) * per_client;
  ServeRun run;
  run.requests_per_second = requests / seconds;
  // Each warm-up request ran as a batch of its own.
  run.mean_batch =
      requests / static_cast<double>(std::max<std::int64_t>(
                     1, stats.batches - kWarmup));
  run.not_ok = not_ok.load();
  return run;
}

TEST(Perf, BatchedServingAtLeastTwiceOneAtATime) {
  const PoolThreads threads(1);
  constexpr int kRequests = 768;
  constexpr int kMaxBatch = 16;
  // Best of three pairs: each pair runs both scenarios back to back, so
  // load shared by the pair cancels out of its ratio, and the best pair is
  // the one least disturbed by load that was not shared.
  double best_ratio = 0.0;
  double best_mean_batch = 0.0;
  for (int pair = 0; pair < 3; ++pair) {
    const ServeRun one = serve_closed_loop(1, kRequests, 1);
    // Twice as many clients as the batch cap keep the queue primed: while
    // one batch computes, the next one's requests are already queued.
    const ServeRun batched =
        serve_closed_loop(2 * kMaxBatch, kRequests / kMaxBatch, kMaxBatch);
    ASSERT_EQ(one.not_ok, 0) << "one-at-a-time requests did not resolve ok";
    ASSERT_EQ(batched.not_ok, 0) << "batched requests did not resolve ok";
    const double ratio =
        batched.requests_per_second / one.requests_per_second;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_mean_batch = batched.mean_batch;
    }
  }
  std::printf("batched/one-at-a-time throughput %.2fx, mean batch %.1f\n",
              best_ratio, best_mean_batch);
  EXPECT_GE(best_ratio, 2.0)
      << "batched serving is only " << best_ratio
      << "x the one-at-a-time throughput (best of three pairs)";
  // Below batch 8 the ratio would not be measuring coalescing.
  EXPECT_GE(best_mean_batch, 8.0);
}

}  // namespace
}  // namespace mfa
