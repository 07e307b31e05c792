// Process-wide metrics registry: counters, gauges, and histograms with fixed
// log2 buckets (VPR route-profiling / tcmalloc-stats in spirit).
//
// Design (see DESIGN.md, "Observability"):
//  * Named cells. obs::counter("router.ripups") returns a stable reference
//    that lives for the process; call sites cache it in a function-local
//    static so the name lookup happens once.
//  * Lock-free hot path. Counter increments go to a thread-local shard (one
//    plain-store atomic slot per counter, single writer), the same front-end
//    pattern as StoragePool's thread cache. Shards drain into the registry's
//    central cells at thread exit; readers aggregate central + live shards,
//    so value() is exact once the writing threads have synchronised with the
//    reader (e.g. after a parallel_for join). Histogram records and gauge
//    sets hit central atomics directly — they are orders of magnitude rarer
//    than counter bumps.
//  * Adopted sources. Subsystems with their own counters (StoragePool,
//    ThreadPool) register a snapshot source; their stats appear in
//    metrics_json() without double bookkeeping on their hot paths.
//  * Near-zero when off. MFA_OBS=off (or 0/false) short-circuits every
//    record call to one relaxed load + branch. Registration still works when
//    disabled — only recording is suppressed — so cached cell references
//    stay valid across enable/disable toggles.
//
// Histogram buckets are fixed log2: bucket 0 holds value 0, bucket b >= 1
// holds values in [2^(b-1), 2^b - 1]. Values are int64 (negative clamps to
// 0); record durations in nanoseconds and sizes in raw units.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mfa::obs {

/// Number of log2 histogram buckets (covers the full non-negative int64
/// range: bucket 63 holds values >= 2^62).
inline constexpr int kHistogramBuckets = 64;

/// Runtime toggle, seeded from the MFA_OBS environment variable (default
/// on; "off"/"0"/"false" disable). Disabled mode records nothing and
/// allocates nothing; set_enabled is the test hook.
bool enabled();
void set_enabled(bool on);

namespace detail {
struct Cell;       // central counter/gauge storage, defined in metrics.cpp
struct HistCell;   // central histogram storage
}  // namespace detail

/// Monotonic event counter. add() is the only hot-path operation in the
/// subsystem: one enabled() check plus one single-writer relaxed store.
class Counter {
 public:
  void add(std::int64_t n = 1);
  /// Central value plus every live thread shard (exact after the writers
  /// have synchronised with this thread).
  std::int64_t value() const;

 private:
  friend class Registry;
  explicit Counter(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_;
};

/// Last-write-wins double value (e.g. trainer.loss).
class Gauge {
 public:
  void set(double v);
  double value() const;

 private:
  friend class Registry;
  explicit Gauge(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_;
};

/// Aggregated histogram snapshot (see Histogram::snapshot()).
struct HistogramStats {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when count == 0
  std::int64_t max = 0;
  std::vector<std::int64_t> buckets;  // kHistogramBuckets entries
};

/// Fixed-log2-bucket histogram. record() clamps negatives to 0.
class Histogram {
 public:
  void record(std::int64_t v);
  HistogramStats snapshot() const;
  std::int64_t count() const;
  std::int64_t sum() const;

 private:
  friend class Registry;
  explicit Histogram(detail::HistCell* cell) : cell_(cell) {}
  detail::HistCell* cell_;
};

/// Bucket index for value v: 0 for v <= 0, else 1 + floor(log2(v)) capped at
/// kHistogramBuckets - 1. Exposed so schema tests can pin the layout.
int histogram_bucket(std::int64_t v);

/// Process-wide registry (leaky singleton, same rationale as StoragePool:
/// thread shards drain from thread-exit destructors).
class Registry {
 public:
  static Registry& instance();

  /// Looks up or creates a metric. References stay valid for the process
  /// lifetime; reset() zeroes values but never invalidates cells.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Registers a pull source: fn() is invoked at snapshot time and its
  /// (suffix, value) pairs appear as "<prefix>.<suffix>". Re-registering a
  /// prefix replaces the source. Used to adopt StoragePool / ThreadPool
  /// counters without touching their hot paths.
  using Source = std::function<std::vector<std::pair<std::string, double>>()>;
  void register_source(const std::string& prefix, Source fn);

  /// Flat JSON object of every metric (sorted by name; histograms serialise
  /// as nested objects with count/sum/min/max and the non-empty buckets).
  /// A source that throws mid-snapshot (or the obs.export fault point) does
  /// not propagate: the snapshot closes cleanly with an "obs.export_errors"
  /// diagnostic entry — a partial snapshot must never crash the flow.
  std::string metrics_json();

  /// Zeroes every counter/gauge/histogram (live shards included). Test hook.
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry();
  struct Impl;
  friend class Counter;
  Impl* impl_;
};

/// Convenience front-ends; cache the result in a function-local static at
/// hot call sites:  static obs::Counter c = obs::counter("router.ripups");
inline Counter counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline Histogram histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}

}  // namespace mfa::obs
