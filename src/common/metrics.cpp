#include "common/metrics.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/env.h"
#include "common/fault.h"

namespace mfa::obs {
namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env::flag("MFA_OBS", true)};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {

// Central storage for one counter or gauge. Counters keep the drained /
// directly-added part in `central`; live thread shards hold the rest.
// Gauges reuse `central` as a double bit pattern.
struct Cell {
  std::atomic<std::int64_t> central{0};
  // Dense shard slot index for counters (assigned at creation, in
  // registration order). Gauges don't use shards.
  int slot = -1;
};

struct HistCell {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{0};  // valid only when count > 0
  std::atomic<std::int64_t> max{0};
  std::atomic<std::int64_t> buckets[kHistogramBuckets] = {};

  void record(std::int64_t v) {
    if (v < 0) v = 0;
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
    buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    // min/max via CAS loops; contention here is negligible (histogram
    // records are per-span / per-round, not per-element).
    std::int64_t cur = min.load(std::memory_order_relaxed);
    while ((count.load(std::memory_order_relaxed) == 1 || v < cur) &&
           !min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max.load(std::memory_order_relaxed);
    while (v > cur &&
           !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void reset() {
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    min.store(0, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

}  // namespace detail

int histogram_bucket(std::int64_t v) {
  if (v <= 0) return 0;
  int b = 64 - __builtin_clzll(static_cast<unsigned long long>(v));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

namespace {

// Fixed shard width: each thread that bumps a counter owns one Shard with a
// slot per counter id. 256 slots * 8 bytes = 2 KiB per thread; counters past
// the cap fall back to a central fetch_add (correct, just not sharded).
constexpr int kMaxShardedCounters = 256;

struct Shard {
  // Single-writer (the owning thread); readers aggregate with relaxed loads.
  std::atomic<std::int64_t> slots[kMaxShardedCounters] = {};
};

}  // namespace

struct Registry::Impl {
  std::mutex mu;  // guards the name maps, shard list, and sources
  // std::map keeps metrics_json() sorted without a snapshot-time sort and
  // never moves nodes, so Cell*/HistCell* handles stay valid forever.
  std::map<std::string, detail::Cell> counters;
  std::map<std::string, detail::Cell> gauges;
  std::map<std::string, detail::HistCell> histograms;
  std::vector<detail::Cell*> counters_by_slot;  // slot -> cell
  std::vector<Shard*> shards;                   // every live thread shard
  std::map<std::string, Source> sources;
  std::atomic<std::int64_t> export_errors{0};

  // Thread-local shard front-end. The holder's destructor drains the shard
  // into the central cells and unregisters it; the registry (and therefore
  // this Impl) is leaked, so it outlives every thread-exit destructor.
  struct ShardHolder {
    Registry::Impl* impl = nullptr;
    Shard shard;
    ~ShardHolder() {
      if (impl == nullptr) return;
      std::lock_guard<std::mutex> lock(impl->mu);
      for (std::size_t i = 0;
           i < impl->counters_by_slot.size() && i < kMaxShardedCounters; ++i) {
        std::int64_t v = shard.slots[i].load(std::memory_order_relaxed);
        if (v != 0) {
          impl->counters_by_slot[i]->central.fetch_add(
              v, std::memory_order_relaxed);
        }
      }
      auto& list = impl->shards;
      for (auto it = list.begin(); it != list.end(); ++it) {
        if (*it == &shard) {
          list.erase(it);
          break;
        }
      }
    }
  };

  Shard& local_shard() {
    thread_local ShardHolder holder;
    if (holder.impl == nullptr) {
      holder.impl = this;
      std::lock_guard<std::mutex> lock(mu);
      shards.push_back(&holder.shard);
    }
    return holder.shard;
  }
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
  // Leaked (never destroyed): thread-exit shard destructors may run after
  // static destruction would have torn a non-leaked registry down. Same
  // pattern as StoragePool.
  static Registry* r = new Registry;
  return *r;
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->counters.try_emplace(name);
  if (inserted) {
    if (impl_->counters_by_slot.size() < kMaxShardedCounters) {
      it->second.slot = static_cast<int>(impl_->counters_by_slot.size());
      impl_->counters_by_slot.push_back(&it->second);
    }
  }
  return Counter(&it->second);
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->gauges.try_emplace(name);
  (void)inserted;
  return Gauge(&it->second);
}

Histogram Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->histograms.try_emplace(name);
  (void)inserted;
  return Histogram(&it->second);
}

void Registry::register_source(const std::string& prefix, Source fn) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sources[prefix] = std::move(fn);
}

void Counter::add(std::int64_t n) {
  if (!enabled() || n == 0) return;
  auto& impl = *Registry::instance().impl_;
  if (cell_->slot >= 0) {
    // Single-writer relaxed store: only this thread writes this slot.
    auto& slot = impl.local_shard().slots[cell_->slot];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    cell_->central.fetch_add(n, std::memory_order_relaxed);
  }
}

std::int64_t Counter::value() const {
  auto& impl = *Registry::instance().impl_;
  std::int64_t total = cell_->central.load(std::memory_order_relaxed);
  if (cell_->slot >= 0) {
    std::lock_guard<std::mutex> lock(impl.mu);
    for (Shard* s : impl.shards) {
      total += s->slots[cell_->slot].load(std::memory_order_relaxed);
    }
  }
  return total;
}

void Gauge::set(double v) {
  if (!enabled()) return;
  std::int64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  cell_->central.store(bits, std::memory_order_relaxed);
}

double Gauge::value() const {
  std::int64_t bits = cell_->central.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Histogram::record(std::int64_t v) {
  if (!enabled()) return;
  cell_->record(v);
}

HistogramStats Histogram::snapshot() const {
  HistogramStats s;
  s.count = cell_->count.load(std::memory_order_relaxed);
  s.sum = cell_->sum.load(std::memory_order_relaxed);
  s.min = s.count > 0 ? cell_->min.load(std::memory_order_relaxed) : 0;
  s.max = cell_->max.load(std::memory_order_relaxed);
  s.buckets.resize(kHistogramBuckets);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = cell_->buckets[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::int64_t Histogram::count() const {
  return cell_->count.load(std::memory_order_relaxed);
}

std::int64_t Histogram::sum() const {
  return cell_->sum.load(std::memory_order_relaxed);
}

namespace {

void append_json_number(std::ostringstream& out, double v) {
  // Doubles that are exact integers print without a fraction so counter
  // values stay greppable; everything else gets full precision.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v > -9.0e15 && v < 9.0e15) {
    out << static_cast<std::int64_t>(v);
  } else {
    out.precision(17);
    out << v;
  }
}

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string Registry::metrics_json() {
  // Snapshot under the lock into plain structures, then serialise outside
  // it: a source callback (or the fault point) must not run with mu held.
  std::map<std::string, double> scalars;
  std::map<std::string, HistogramStats> hists;
  std::vector<std::pair<std::string, Source>> sources;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto& [name, cell] : impl_->counters) {
      std::int64_t total = cell.central.load(std::memory_order_relaxed);
      if (cell.slot >= 0) {
        for (Shard* s : impl_->shards) {
          total += s->slots[cell.slot].load(std::memory_order_relaxed);
        }
      }
      scalars[name] = static_cast<double>(total);
    }
    for (auto& [name, cell] : impl_->gauges) {
      std::int64_t bits = cell.central.load(std::memory_order_relaxed);
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      scalars[name] = v;
    }
    for (auto& [name, cell] : impl_->histograms) {
      HistogramStats s;
      s.count = cell.count.load(std::memory_order_relaxed);
      s.sum = cell.sum.load(std::memory_order_relaxed);
      s.min = s.count > 0 ? cell.min.load(std::memory_order_relaxed) : 0;
      s.max = cell.max.load(std::memory_order_relaxed);
      s.buckets.resize(kHistogramBuckets);
      for (int i = 0; i < kHistogramBuckets; ++i) {
        s.buckets[i] = cell.buckets[i].load(std::memory_order_relaxed);
      }
      hists[name] = std::move(s);
    }
    for (auto& [prefix, fn] : impl_->sources) sources.emplace_back(prefix, fn);
  }

  // Pull the adopted sources. Each one runs inside its own try so a flaky
  // source degrades to a partial (still well-formed) snapshot instead of
  // crashing the flow; the obs.export fault point injects exactly that.
  std::int64_t errors = 0;
  for (auto& [prefix, fn] : sources) {
    try {
      if (MFA_FAULT_POINT("obs.export")) {
        throw std::runtime_error("obs: fault-injected export failure");
      }
      for (auto& [suffix, value] : fn()) {
        scalars[prefix + "." + suffix] = value;
      }
    } catch (const std::exception&) {
      ++errors;
    }
  }
  if (errors > 0) {
    impl_->export_errors.fetch_add(errors, std::memory_order_relaxed);
  }
  std::int64_t total_errors =
      impl_->export_errors.load(std::memory_order_relaxed);
  if (total_errors > 0) {
    scalars["obs.export_errors"] = static_cast<double>(total_errors);
  }

  std::ostringstream out;
  out << "{";
  bool first = true;
  // Scalars and histograms interleave in name order; both maps are sorted.
  auto sit = scalars.begin();
  auto hit = hists.begin();
  while (sit != scalars.end() || hit != hists.end()) {
    bool take_scalar =
        hit == hists.end() ||
        (sit != scalars.end() && sit->first < hit->first);
    if (!first) out << ",";
    first = false;
    if (take_scalar) {
      append_json_string(out, sit->first);
      out << ":";
      append_json_number(out, sit->second);
      ++sit;
    } else {
      append_json_string(out, hit->first);
      const HistogramStats& s = hit->second;
      out << ":{\"count\":" << s.count << ",\"sum\":" << s.sum
          << ",\"min\":" << s.min << ",\"max\":" << s.max << ",\"buckets\":{";
      bool bfirst = true;
      for (int i = 0; i < kHistogramBuckets; ++i) {
        if (s.buckets[i] == 0) continue;
        if (!bfirst) out << ",";
        bfirst = false;
        out << "\"" << i << "\":" << s.buckets[i];
      }
      out << "}}";
      ++hit;
    }
  }
  out << "}";
  return out.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, cell] : impl_->counters) {
    cell.central.store(0, std::memory_order_relaxed);
    if (cell.slot >= 0) {
      // Zeroing another thread's slot races with its next add only in the
      // benign lost-update sense; reset() is a test hook called while the
      // workers are quiescent (documented in the header).
      for (Shard* s : impl_->shards) {
        s->slots[cell.slot].store(0, std::memory_order_relaxed);
      }
    }
  }
  for (auto& [name, cell] : impl_->gauges) {
    cell.central.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : impl_->histograms) cell.reset();
  impl_->export_errors.store(0, std::memory_order_relaxed);
}

}  // namespace mfa::obs
