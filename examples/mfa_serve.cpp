// Long-lived congestion-prediction service driver: many synthetic client
// threads fire single-placement feature stacks at one mfa::serve::Server,
// which coalesces them into batched forward passes, sheds overload, degrades
// expired deadlines to the analytic estimate, and hot-swaps weights mid-run.
//
//   mfa_serve [model.ckpt]
//
// The model is the default "ours" configuration (ModelConfig{}), the one
// `mfa_cli train` and train_predictor save. With a checkpoint the serving
// weights come from nn::load_checkpoint (a wrong-architecture file is
// rejected before anything touches the model); without one the demo serves
// seeded random weights.
//
// Knobs (environment variables):
//   MFA_SERVE_CLIENTS      client threads            (default 4)
//   MFA_SERVE_REQUESTS     requests per client       (default 32)
//   MFA_SERVE_GRID         feature grid resolution   (default 64)
//   MFA_SERVE_QUEUE_DEPTH  admission queue bound     (default 64)
//   MFA_SERVE_MAX_BATCH    batch former cap          (default 8)
//   MFA_SERVE_WAIT_MS      batch former patience, ms (default 1)
//   MFA_SERVE_DEADLINE_MS  per-request deadline, ms  (default 0 = none)
//   MFA_SERVE_SWAP         1 = hot-swap weights mid-run (default 1)
//   MFA_SERVE_PACE_MS      client think-time between requests (default 0)
//
// SIGINT/SIGTERM: first signal drains (in-flight requests complete, queued
// ones flush as shutting_down, the tally still balances); second forces
// exit. See tests/serve_signals_test.sh for the scripted check.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "signal_util.h"
#include "models/congestion_model.h"
#include "nn/checkpoint.h"
#include "nn/snapshot.h"
#include "serve/server.h"

using namespace mfa;

namespace {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v && *v ? std::atoll(v) : fallback;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Warn);
  examples::install_drain_handlers();

  const std::int64_t clients = env_int("MFA_SERVE_CLIENTS", 4);
  const std::int64_t per_client = env_int("MFA_SERVE_REQUESTS", 32);
  // The default "ours" configuration, which `mfa_cli train` and
  // train_predictor save, so their checkpoints load here.
  models::ModelConfig config;
  config.grid = env_int("MFA_SERVE_GRID", config.grid);
  const std::int64_t grid = config.grid;
  const bool swap_midrun = env_int("MFA_SERVE_SWAP", 1) != 0;
  const std::int64_t pace_ms = env_int("MFA_SERVE_PACE_MS", 0);

  auto model = models::make_model("ours", config);
  if (argc > 1) {
    try {
      nn::CheckpointMeta meta;
      nn::load_checkpoint(model->network(), argv[1], &meta);
      std::printf("loaded weights from %s (epoch %lld)\n", argv[1],
                  static_cast<long long>(meta.epoch));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: rejected checkpoint %s: %s\n", argv[1],
                   e.what());
      return 1;
    }
  }

  serve::ServerOptions opt;
  opt.max_queue_depth = env_int("MFA_SERVE_QUEUE_DEPTH", 64);
  opt.max_batch = env_int("MFA_SERVE_MAX_BATCH", 8);
  opt.max_batch_wait_seconds =
      static_cast<double>(env_int("MFA_SERVE_WAIT_MS", 1)) * 1e-3;
  opt.default_deadline_seconds =
      static_cast<double>(env_int("MFA_SERVE_DEADLINE_MS", 0)) * 1e-3;
  serve::Server server(std::move(model), opt);
  std::printf(
      "serving: %lld clients x %lld requests, grid %lld, queue %lld, "
      "batch<=%lld, wait %.1f ms%s\n",
      static_cast<long long>(clients), static_cast<long long>(per_client),
      static_cast<long long>(grid),
      static_cast<long long>(opt.max_queue_depth),
      static_cast<long long>(opt.max_batch),
      opt.max_batch_wait_seconds * 1e3,
      opt.default_deadline_seconds > 0.0 ? ", deadlines on" : "");

  std::atomic<std::int64_t> ok{0}, fallback{0}, shed{0}, shutting_down{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::vector<std::thread> pool;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(1000 + c));
      common::BackoffOptions bopt;
      bopt.base_seconds = 1e-4;
      bopt.max_seconds = 5e-3;
      bopt.max_retries = 8;
      for (std::int64_t m = 0; m < per_client; ++m) {
        if (pace_ms > 0 && m > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
        if (examples::drain_requested()) break;
        serve::Request req{
            Tensor::uniform({6, grid, grid}, rng, 0.0f, 1.0f)};
        serve::Response r = server.predict_with_retry(
            req, bopt, static_cast<std::uint64_t>(c * 10000 + m));
        switch (r.status) {
          case serve::Status::kOk: ok.fetch_add(1); break;
          case serve::Status::kFallback: fallback.fetch_add(1); break;
          case serve::Status::kShed: shed.fetch_add(1); break;
          case serve::Status::kShuttingDown: shutting_down.fetch_add(1); break;
        }
        if (r.status == serve::Status::kOk)
          latencies[static_cast<size_t>(c)].push_back(r.total_seconds);
      }
    });
  }

  // Demo of the hot path's robustness story: publish a fresh snapshot while
  // the clients are mid-flight. No request observes a half-swapped model.
  if (swap_midrun && !examples::drain_requested()) {
    auto donor = models::make_model("ours", [&] {
      auto c2 = config;
      c2.seed = 7;
      return c2;
    }());
    const auto version =
        server.swap_weights(nn::snapshot_parameters(donor->network()));
    std::printf("hot-swapped weights mid-run -> generation %llu\n",
                static_cast<unsigned long long>(version));
  }

  for (auto& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (examples::drain_requested())
    std::printf("drain requested: shutting down early\n");
  server.shutdown();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const serve::ServerStats s = server.stats();
  std::printf("clients saw: ok %lld, fallback %lld, shed %lld, "
              "shutting_down %lld\n",
              static_cast<long long>(ok.load()),
              static_cast<long long>(fallback.load()),
              static_cast<long long>(shed.load()),
              static_cast<long long>(shutting_down.load()));
  std::printf("server: submitted %lld = ok %lld + fallback %lld + shed %lld "
              "+ shutdown %lld | batches %lld, swaps %lld, restarts %lld\n",
              static_cast<long long>(s.submitted),
              static_cast<long long>(s.ok),
              static_cast<long long>(s.fallbacks),
              static_cast<long long>(s.shed),
              static_cast<long long>(s.shutdown_rejected),
              static_cast<long long>(s.batches),
              static_cast<long long>(s.swaps),
              static_cast<long long>(s.worker_restarts));
  const bool balanced =
      s.submitted == s.ok + s.fallbacks + s.shed + s.shutdown_rejected;
  std::printf("throughput %.0f req/s, latency p50 %.2f ms, p99 %.2f ms\n",
              wall > 0.0 ? static_cast<double>(ok.load()) / wall : 0.0,
              percentile(all, 0.50) * 1e3, percentile(all, 0.99) * 1e3);
  std::printf("%s\n", balanced ? "drained clean: every request resolved"
                               : "ERROR: request accounting does not balance");
  return balanced ? 0 : 1;
}
