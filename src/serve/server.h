// mfa::serve — congestion prediction as a long-lived in-process service.
//
// Many client threads submit single-placement feature maps; one serving
// worker coalesces them into batched forward passes over the N dimension of
// the tensor stack (the throughput lever: per-op overhead and allocator
// traffic amortise across the batch, see tests/test_perf.cpp). The
// robustness layer around that hot loop is the point of this module:
//
//  * Bounded admission. The queue never grows past max_queue_depth and a
//    full queue sheds immediately with a retryable rejection — a client is
//    never blocked forever on an overloaded server. Retry policy lives
//    client-side (predict_with_retry, deterministic common::Backoff).
//  * Deadlines. A request whose deadline has passed by the time the worker
//    picks it up is not worth a model forward any more: it degrades to the
//    analytic congestion estimate (flow::analytic_levels), exactly the
//    fallback FlowOptions::predictor_time_budget_seconds applies inside the
//    placement flow, and the cut is reported per-request in
//    Response::incidents.
//  * Hot weight swap. All in-flight requests share one immutable weight
//    snapshot through refcounted tensor::Storage handles (no per-request
//    model copy). swap_weights() validates the snapshot's name/shape
//    manifest against the serving model (typed nn::SnapshotError on any
//    mismatch — a wrong-architecture or corrupt snapshot never reaches live
//    weights) and publishes it; the worker adopts at the next batch
//    boundary, so no forward pass ever sees half-swapped parameters.
//  * Crash containment. A failure inside a batch (CheckError from the
//    numeric stack, fault-injected via serve.batch_failure) poisons only
//    that batch: its requests resolve with the analytic fallback and an
//    incident naming the crash, the worker reinstalls the current snapshot
//    (discarding any suspect model state) and restarts its loop. Later
//    requests are served normally.
//  * Clean drain. shutdown() stops admission, lets the in-flight batch
//    complete, joins the worker, and flushes everything still queued with a
//    terminal shutting_down status. Every submitted request resolves exactly
//    once, no matter how the server goes down.
//
// Observability: serve.* counters/gauges/histograms in the mfa::obs registry
// (queue depth, batch occupancy, queue/total latency, sheds, deadline
// fallbacks, swaps, worker restarts) plus a serve.batch trace span.
// Fault points: serve.queue_full, serve.batch_failure, serve.swap_corrupt,
// serve.slow_worker (Debug builds; see common/fault.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "flow/strategies.h"
#include "models/congestion_model.h"
#include "nn/snapshot.h"
#include "tensor/tensor.h"

namespace mfa::serve {

/// Terminal disposition of a request. Every submitted request reaches
/// exactly one of these.
enum class Status {
  kOk,            // model forward produced the level map
  kFallback,      // degraded to the analytic estimate (deadline / crash)
  kShed,          // rejected at admission (queue full); retryable
  kShuttingDown,  // rejected or flushed because the server is draining
};

const char* to_string(Status status);

struct ServerOptions {
  /// Admission bound: a submit finding this many requests queued is shed.
  /// 0 sheds everything (useful for overload tests); in-flight batches do
  /// not count against the bound.
  std::int64_t max_queue_depth = 64;
  /// Batch former cap: at most this many requests per forward pass.
  std::int64_t max_batch = 8;
  /// Batch former patience: after the first request of a batch arrives, wait
  /// at most this long for the batch to fill before running it short. The
  /// latency-for-throughput knob — 0 serves whatever is queued immediately.
  double max_batch_wait_seconds = 1e-3;
  /// Deadline applied to requests that do not carry their own (0 = none).
  double default_deadline_seconds = 0.0;
  /// Analytic estimator used for deadline/crash degradation. Must not be
  /// Strategy::Ours (that is the model being degraded from).
  flow::Strategy fallback_strategy = flow::Strategy::Utda;
};

struct Request {
  /// Feature stack [6, H, W], the same normalised §III-B maps the model was
  /// trained on. (The quantile-based analytic fallback is invariant to the
  /// per-channel max-scaling for single-channel estimators such as Utda, so
  /// one tensor serves both paths.)
  Tensor features;
  /// Wall-clock budget from submit to the start of the model forward.
  /// < 0: use ServerOptions::default_deadline_seconds; 0: no deadline.
  double deadline_seconds = -1.0;
};

struct Response {
  Status status = Status::kShed;
  /// True for sheds worth retrying with backoff (queue pressure is
  /// transient); false for shutdown rejections and served requests.
  bool retryable = false;
  /// Human-readable disposition: shed reason, or what degraded and why.
  std::string reason;
  /// Per-request recovery actions (deadline fallback, batch crash), in the
  /// FlowIncident spirit: the request was answered, but not by the model.
  std::vector<std::string> incidents;
  /// Congestion level map [H, W]; defined for kOk and kFallback.
  Tensor levels;
  /// Snapshot generation the answer was computed with (kOk only).
  std::uint64_t weights_version = 0;
  /// Occupancy of the forward pass that served this request (kOk only).
  std::int64_t batch_size = 0;
  double queue_seconds = 0.0;  // submit -> picked up by the worker
  double total_seconds = 0.0;  // submit -> response ready
};

/// Monotonic service counters (atomics; exact whenever no request is in
/// flight). The terminal-resolution invariant the soak suite pins:
///   submitted == ok + fallbacks + shed + shutdown_rejected.
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t ok = 0;
  std::int64_t fallbacks = 0;          // deadline + crash degradations
  std::int64_t shed = 0;               // admission rejections (queue full)
  std::int64_t shutdown_rejected = 0;  // drain flushes + post-drain submits
  std::int64_t batches = 0;            // forward passes run
  std::int64_t swaps = 0;              // snapshots published
  std::int64_t swap_rejects = 0;       // snapshots refused by validation
  std::int64_t worker_restarts = 0;    // batch crashes contained
};

class Server {
 public:
  /// Takes ownership of the serving model. The model's current parameters
  /// become snapshot generation 1. The worker thread starts immediately.
  Server(std::unique_ptr<models::CongestionModel> model,
         const ServerOptions& options);
  ~Server();  // shutdown() if the caller has not already

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission: bounded-queue enqueue. Returns a future that always
  /// resolves — with a served level map, a shed, or a shutdown status —
  /// never blocks the submitting thread, and never waits forever.
  std::future<Response> submit(Request request);

  /// submit + wait. Convenience for synchronous callers.
  Response predict(Request request);

  /// predict with deterministic backoff-retry on retryable sheds: sleeps
  /// per the decorrelated-jitter schedule and resubmits until the request
  /// resolves terminally or the retry budget is exhausted (the last
  /// response is returned either way).
  Response predict_with_retry(Request request,
                              const common::BackoffOptions& backoff_options,
                              std::uint64_t seed);

  /// Validates the snapshot's manifest against the serving model and
  /// publishes it; the worker adopts it at the next batch boundary. Throws
  /// nn::SnapshotError (and leaves the serving weights untouched) on any
  /// mismatch — including a corruption injected via serve.swap_corrupt.
  /// Returns the new snapshot generation.
  std::uint64_t swap_weights(nn::WeightSnapshot snapshot);

  /// Generation of the snapshot the worker is currently serving from.
  std::uint64_t weights_version() const;

  /// Drain: stop admission, finish the in-flight batch, join the worker,
  /// flush everything still queued with kShuttingDown. Idempotent; called
  /// by the destructor. Bounded by one batch's work — there is no unbounded
  /// wait to interrupt.
  void shutdown();

  bool accepting() const;

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }

  /// Test hook: while paused, the worker finishes its current batch and
  /// then idles without collecting new ones, so tests can deterministically
  /// pile up queued requests (e.g. to exercise the drain flush).
  void pause_worker_for_testing(bool paused);

 private:
  struct Pending;
  using PendingPtr = std::unique_ptr<Pending>;

  void worker_thread_main();
  void worker_loop();
  std::vector<PendingPtr> collect_batch();
  void execute_batch(std::vector<PendingPtr>& batch);
  void adopt_snapshot_locked(std::unique_lock<std::mutex>& lock);
  void resolve_ok(Pending& p, Tensor levels, std::int64_t batch_size,
                  std::uint64_t version);
  void resolve_fallback(Pending& p, const std::string& incident);
  static void resolve_terminal(Pending& p, Status status, bool retryable,
                               const std::string& reason);
  void handle_worker_crash(const std::string& what);

  ServerOptions options_;
  std::unique_ptr<models::CongestionModel> model_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingPtr> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  // Snapshot staged by swap_weights, adopted by the worker at the next
  // batch boundary; also reinstalled after a contained crash.
  std::shared_ptr<const nn::WeightSnapshot> staged_snapshot_;
  std::shared_ptr<const nn::WeightSnapshot> current_snapshot_;
  std::uint64_t staged_version_ = 0;

  std::atomic<std::uint64_t> serving_version_{1};
  // In-flight batch, held as a member (not a worker_loop local) so the crash
  // handler can still resolve its members after the stack unwinds. Touched
  // only by the worker thread.
  std::vector<PendingPtr> current_batch_;

  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;
  std::thread worker_;
  bool joined_ = false;
  std::mutex shutdown_mutex_;  // serialises shutdown() callers
};

}  // namespace mfa::serve
