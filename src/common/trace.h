// RAII wall-time trace spans over a fixed-capacity ring buffer, exported as
// Chrome trace_event JSON (load the file in chrome://tracing or Perfetto).
//
//     void GlobalPlacer::spread() {
//       MFA_TRACE_SCOPE("placer.spread");
//       ...
//     }
//
// Each MFA_TRACE_SCOPE also feeds an obs::Histogram of the same name (cached
// in a function-local static, so the name lookup happens once per call
// site), so span timings appear both on the timeline and in the flat
// metrics_json() snapshot.
//
// The ring holds the most recent `trace_capacity()` spans; older spans are
// overwritten and counted as dropped. Slots are written lock-free (one
// fetch_add claim plus relaxed field stores sealed by a release stamp), so
// concurrent workers never block each other. Exporting while spans are
// still being recorded is safe but may skip slots mid-overwrite; export
// from a quiesced process (end of flow / end of bench) for a complete
// timeline. Timestamps are nanoseconds on the steady clock, zeroed at the
// first use in the process.
//
// Gating matches metrics.h: with the runtime MFA_OBS switch off, spans are
// no-ops. The ring is allocated lazily on the first recorded span, so a
// disabled process never pays the buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace mfa::obs {

/// One completed span, as read back from the ring.
struct TraceEvent {
  const char* name = nullptr;  // static string literal from the call site
  int tid = 0;                 // small per-thread ordinal, 0 = first thread
  std::int64_t start_ns = 0;   // steady-clock, relative to process trace epoch
  std::int64_t dur_ns = 0;
};

/// Nanoseconds since the process's trace epoch (first call wins).
std::int64_t trace_now_ns();

/// Small dense ordinal for the calling thread (stable for its lifetime).
int trace_thread_id();

/// Records one completed span. `name` must outlive the process (pass a
/// string literal). No-op when disabled.
void trace_record(const char* name, std::int64_t start_ns, std::int64_t dur_ns);

/// Copies out the valid spans, oldest first (by start time).
std::vector<TraceEvent> trace_snapshot();

/// Total spans ever recorded (including ones the ring has since dropped).
std::int64_t trace_total_recorded();

/// Ring capacity in spans (default 65536).
std::size_t trace_capacity();

/// Clears the ring; optionally resizes it (0 keeps the current capacity).
/// Test hook — callers must be quiesced.
void trace_reset(std::size_t new_capacity = 0);

/// Chrome trace_event JSON: {"traceEvents":[...]} with "X" (complete)
/// events, ts/dur in microseconds. Always well-formed, even when empty.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// RAII span. Prefer the MFA_TRACE_SCOPE macro, which also wires the
/// histogram; construct directly only when the name is computed.
class TraceScope {
 public:
  explicit TraceScope(const char* name, Histogram* hist = nullptr)
      : name_(enabled() ? name : nullptr), hist_(hist) {
    if (name_ != nullptr) start_ns_ = trace_now_ns();
  }
  ~TraceScope() {
    if (name_ == nullptr) return;
    std::int64_t dur = trace_now_ns() - start_ns_;
    trace_record(name_, start_ns_, dur);
    if (hist_ != nullptr) hist_->record(dur);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  Histogram* hist_;
  std::int64_t start_ns_ = 0;
};

#define MFA_OBS_CONCAT2(a, b) a##b
#define MFA_OBS_CONCAT(a, b) MFA_OBS_CONCAT2(a, b)
#define MFA_TRACE_SCOPE_IMPL(name_lit, ctr)                               \
  static ::mfa::obs::Histogram MFA_OBS_CONCAT(mfa_trace_hist_, ctr) =     \
      ::mfa::obs::histogram(name_lit);                                    \
  ::mfa::obs::TraceScope MFA_OBS_CONCAT(mfa_trace_scope_, ctr)(           \
      name_lit, &MFA_OBS_CONCAT(mfa_trace_hist_, ctr))
/// Times the enclosing scope under `name_lit` (must be a string literal).
#define MFA_TRACE_SCOPE(name_lit) MFA_TRACE_SCOPE_IMPL(name_lit, __COUNTER__)

}  // namespace mfa::obs
