#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <algorithm>
#include <mutex>
#include <sstream>

namespace mfa::obs {

namespace {

struct Slot {
  // All fields relaxed-atomic: slots are rewritten on ring wrap while other
  // threads may be reading, and plain fields would be a data race. `seq`
  // seals a write (release) and gates readers (acquire); 0 = never written.
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::int64_t> dur_ns{0};
  std::atomic<int> tid{0};
  std::atomic<std::uint64_t> seq{0};
};

constexpr std::size_t kDefaultCapacity = 65536;

struct Ring {
  std::mutex mu;                     // guards (re)allocation only
  std::atomic<Slot*> slots{nullptr}; // lazily allocated array
  std::atomic<std::size_t> capacity{kDefaultCapacity};
  std::atomic<std::uint64_t> next{0};  // total claims ever

  static Ring& instance() {
    static Ring* r = new Ring;  // leaked: recorded into from thread exits
    return *r;
  }

  Slot* ensure_slots() {
    Slot* s = slots.load(std::memory_order_acquire);
    if (s != nullptr) return s;
    std::lock_guard<std::mutex> lock(mu);
    s = slots.load(std::memory_order_acquire);
    if (s == nullptr) {
      s = new Slot[capacity.load(std::memory_order_relaxed)];
      slots.store(s, std::memory_order_release);
    }
    return s;
  }
};

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

int trace_thread_id() {
  static std::atomic<int> next_tid{0};
  thread_local int tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void trace_record(const char* name, std::int64_t start_ns,
                  std::int64_t dur_ns) {
  if (!enabled() || name == nullptr) return;
  Ring& ring = Ring::instance();
  Slot* slots = ring.ensure_slots();
  std::size_t cap = ring.capacity.load(std::memory_order_relaxed);
  std::uint64_t claim = ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots[claim % cap];
  slot.seq.store(0, std::memory_order_relaxed);  // invalidate while writing
  slot.name.store(name, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.tid.store(trace_thread_id(), std::memory_order_relaxed);
  slot.seq.store(claim + 1, std::memory_order_release);
}

std::vector<TraceEvent> trace_snapshot() {
  Ring& ring = Ring::instance();
  Slot* slots = ring.slots.load(std::memory_order_acquire);
  if (slots == nullptr) return {};
  std::size_t cap = ring.capacity.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  out.reserve(std::min<std::uint64_t>(
      cap, ring.next.load(std::memory_order_relaxed)));
  for (std::size_t i = 0; i < cap; ++i) {
    if (slots[i].seq.load(std::memory_order_acquire) == 0) continue;
    TraceEvent e;
    e.name = slots[i].name.load(std::memory_order_relaxed);
    e.tid = slots[i].tid.load(std::memory_order_relaxed);
    e.start_ns = slots[i].start_ns.load(std::memory_order_relaxed);
    e.dur_ns = slots[i].dur_ns.load(std::memory_order_relaxed);
    if (e.name != nullptr) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::int64_t trace_total_recorded() {
  return static_cast<std::int64_t>(
      Ring::instance().next.load(std::memory_order_relaxed));
}

std::size_t trace_capacity() {
  return Ring::instance().capacity.load(std::memory_order_relaxed);
}

void trace_reset(std::size_t new_capacity) {
  Ring& ring = Ring::instance();
  std::lock_guard<std::mutex> lock(ring.mu);
  Slot* old = ring.slots.load(std::memory_order_acquire);
  if (new_capacity != 0 &&
      new_capacity != ring.capacity.load(std::memory_order_relaxed)) {
    ring.capacity.store(new_capacity, std::memory_order_relaxed);
    // The old array is leaked on resize: a racing trace_record may still
    // hold its pointer. Test-only path; bounded by the number of resizes.
    ring.slots.store(nullptr, std::memory_order_release);
  } else if (old != nullptr) {
    std::size_t cap = ring.capacity.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < cap; ++i) {
      old[i].seq.store(0, std::memory_order_relaxed);
    }
  }
  ring.next.store(0, std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  std::vector<TraceEvent> events = trace_snapshot();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << e.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
    // Chrome expects microseconds; keep nanosecond precision as fractions.
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.start_ns) / 1000.0);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out << buf << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json();
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace mfa::obs
