// Shared pieces of the end-to-end benchmark: arguments, seed derivation,
// timing, the span ledger used by traced runs, and the result record every
// workload fills in.
//
// The program is measured from outside: every span wraps a public call into
// one module (place, route, features, models, ...), and counts are read from
// public getters and the obs::Registry at the same boundaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "models/congestion_model.h"
#include "train/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Independent seed for one consumer (`tag`) of the workload seed, so adding
/// a consumer never shifts another's stream.
std::uint64_t derive_seed(std::uint64_t workload_seed, const std::string& tag);

/// Median / linear-interpolated quantile (q in [0, 1]) of a sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Process peak resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host-drift probe: wall times of two fixed single-threaded loops owned by
/// the benchmark, one integer-bound and one a pointer chase through 8 MB.
/// Diagnostic only: never a gate, never a normaliser.
struct DriftProbe {
  double cpu_ms = 0.0;
  double mem_ms = 0.0;
  static DriftProbe measure();
};

/// Counters read from the program's own getters and obs registry.
struct Counters {
  double pool_hits = 0, pool_misses = 0;  // tensor::StoragePool
  double pool_jobs = 0, pool_inline = 0;  // common::ThreadPool
  double gemm_calls = 0;                  // obs "gemm.calls"
  double ripups = 0;                      // obs "router.ripups"
  static Counters read();
  Counters operator-(const Counters& base) const;
  Counters& operator+=(const Counters& delta);
};

/// Flat span ledger for traced runs. A span names the module it times
/// ("place.gp", "route.detailed", ...) and is a child of the current op; ops
/// are the workload's timed units. Spans stay in memory and are written as a
/// Chrome trace when the run ends. Disabled ledgers record nothing.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Ledger* ledger, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
    const char* name_;
    Clock::time_point start_{};
  };

  Span span(const char* name) { return Span(enabled_ ? this : nullptr, name); }
  bool enabled() const { return enabled_; }

  void begin_op();
  /// Closes the op; returns its wall time in ms.
  double end_op();
  /// Adds a count to the current op (e.g. GP iterations).
  void count(const std::string& name, double v);

  /// Per-op totals for `name` (ms for spans, raw for counts), one entry per
  /// closed op; ops that never saw the name contribute 0.
  std::vector<double> per_op(const std::string& name) const;
  const std::vector<double>& op_ms() const { return op_ms_; }
  /// Op wall time not covered by any span, per op.
  std::vector<double> unaccounted_ms() const;
  /// Smallest share of an op covered by spans.
  double min_coverage() const;

  /// Writes every op and span as Chrome trace_event JSON.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    double start_us, dur_us;
    std::int64_t op;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  Clock::time_point op_start_{};
  std::map<std::string, double> current_;  // span ms of the open op
  std::map<std::string, double> counts_;   // counts of the open op
  std::vector<std::map<std::string, double>> ops_;
  std::vector<std::map<std::string, double>> op_counts_;
  std::vector<double> op_ms_;
  std::vector<Event> events_;
};

/// One metric as printed in the result line.
struct Metric {
  double value;
  std::string unit;
};

/// What a run reports. `correct` turns false on any failed output check.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Figures printed on the line before the result and never gated, such as
  /// serve's p90 latency and the held-out accuracy.
  std::map<std::string, double> notes;
  /// Failed checks, printed to stderr (one line each, capped).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value) { notes[name] = value; }
  /// tensor.gemm_calls per op, tensor.pool_hit_rate and
  /// common.pool_inline_frac from counters summed over `ops` traced ops;
  /// ratios with a zero denominator are left out.
  void set_counters(const Counters& sum, double ops);
  /// <prefix>.unaccounted_ms, .span_coverage_pct and .trace_overhead_pct
  /// (traced median against the untraced median); a traced op less than 95%
  /// covered by spans makes the run incorrect.
  void set_coverage(const std::string& prefix, const Ledger& ledger,
                    const std::vector<double>& untraced_ms);
  /// Records one attempted op; `problem` non-empty marks it failed.
  void op(const std::string& problem);
  /// Records a failed check that is not an op (e.g. the ServerStats
  /// identity).
  void invalid(const std::string& problem);
};

/// Runs `rounds` rounds of set-up, each followed by its share of the `ops`
/// timed ops (op(i) for i = 0 .. ops-1), so set-ups and ops are both spread
/// over the whole run instead of sitting in one stretch of host drift.
/// Returns the median set-up time in seconds.
template <typename Setup, typename Op>
double run_rounds(int rounds, std::int64_t ops, Setup&& setup, Op&& op) {
  std::vector<double> setup_s;
  std::int64_t done = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    setup();
    setup_s.push_back(ms_since(t0) / 1000.0);
    std::fprintf(stderr, "perfbench: set-up %d: %.3f s, peak RSS %.1f MB\n",
                 r, setup_s.back(), peak_rss_mb());
    for (const std::int64_t end = ops * (r + 1) / rounds; done < end; ++done)
      op(done);
    std::fprintf(stderr, "perfbench: round %d ops done, peak RSS %.1f MB\n", r,
                 peak_rss_mb());
  }
  return median(setup_s);
}

/// Set-up rounds of an untraced run (traced runs set up once).
constexpr int kRounds = 3;

/// Fixed op count for a run of `seconds`: sized from a nominal per-op cost
/// on the reference host, never from the wall clock of this run.
std::int64_t op_count(int seconds, double nominal_op_s, std::int64_t min_ops);

/// Fixed-instance dataset of the train and serve workloads: `placements`
/// placements per design (x4 rotations) from instance seed 1, every second
/// placement held out.
void build_split(const std::vector<std::string>& designs,
                 std::int64_t placements, const mfa::fpga::DeviceGrid& device,
                 std::vector<mfa::train::Sample>& train_set,
                 std::vector<mfa::train::Sample>& eval_set);

/// The predictor of flow_ml and serve: the "ours" model at 64^2 trained for
/// 4 epochs, batch 4, seeded as the Table II bench seeds it at MFA_SEED=1.
/// A rollback, divergence or non-finite loss makes `result` incorrect.
std::unique_ptr<mfa::models::CongestionModel> train_predictor(
    const std::vector<mfa::train::Sample>& samples, Result& result);

void run_flow_ml(const Args& args, Result& result);
void run_flow_route(const Args& args, Result& result);
void run_train(const Args& args, Result& result);
void run_serve(const Args& args, Result& result);

}  // namespace perfbench
