// Deterministic fault injection for testing the recovery layer.
//
// Call sites name a fault point and ask whether it should fire; tests arm
// points with a trigger (once / nth call / seeded probability) and the
// production code path reacts exactly as it would to the real fault:
//
//     if (MFA_FAULT_POINT("checkpoint.crash_before_rename"))
//       throw std::runtime_error("checkpoint: fault-injected crash");
//
// Design rules:
//  * Deterministic. The probability trigger hashes (seed, hit index), so a
//    fixed seed reproduces the exact fire pattern regardless of wall clock,
//    thread timing of *other* points, or platform.
//  * Zero overhead in Release. With NDEBUG (and without
//    MFA_FORCE_FAULT_INJECTION) MFA_FAULT_POINT(name) expands to the literal
//    `false`, so the guarded branch is dead code and the registry is never
//    consulted. MFA_FAULT_INJECTION_ON reports the active mode.
//  * Thread safe. The registry is mutex-protected; points fired from
//    parallel_for workers count correctly.
//
// Fault points currently threaded through the library:
//     checkpoint.torn_write          corrupts one byte of a checkpoint image
//     checkpoint.crash_before_rename crash between temp write and rename
//     tensor.nan_grad                poisons a parent gradient in backward()
//     trainer.crash                  crash mid-epoch in Trainer::fit
//     flow.predictor_nan             predictor emits a non-finite level map
//     flow.predict_budget            predictor wall-clock budget reads exhausted
//     place.budget                   placer wall-clock budget reads exhausted
//     route.budget                   router wall-clock budget reads exhausted
//     trainer.budget                 trainer wall-clock budget reads exhausted
//     obs.export                     a metrics snapshot source fails mid-export
//     serve.queue_full               admission queue reads full (load shed)
//     serve.batch_failure            serving worker fails mid-batch
//     serve.swap_corrupt             weight-swap snapshot arrives corrupted
//     serve.slow_worker              serving worker stalls before the forward
//     sanitize.redzone_corrupt       storage sanitizer reads a stomped redzone
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mfa::common {

/// Per-point bookkeeping returned by FaultInjector::stats().
struct FaultPointStats {
  std::string name;
  std::int64_t hits = 0;   // times the point was evaluated while armed
  std::int64_t fires = 0;  // times it reported true
};

/// Process-wide registry of armed fault points (singleton; tests reset() it).
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Fires on the next hit only.
  void arm_once(const std::string& point);
  /// Fires on exactly the nth hit after arming (1-based).
  void arm_nth(const std::string& point, std::int64_t nth);
  /// Fires each hit independently with probability `p`, derived from
  /// (seed, hit index) so the pattern is reproducible.
  void arm_probability(const std::string& point, double p, std::uint64_t seed);
  /// Fires on every hit.
  void arm_always(const std::string& point);

  /// Stops the point from firing; its recorded counters survive until
  /// reset() so a test can still inspect what happened.
  void disarm(const std::string& point);
  /// Disarms every point and clears all counters.
  void reset();

  /// Trigger evaluation for an armed point; counts the hit. Unarmed points
  /// return false without recording anything. Called via MFA_FAULT_POINT.
  bool should_fire(const char* point);

  std::int64_t hit_count(const std::string& point) const;
  std::int64_t fire_count(const std::string& point) const;
  std::vector<FaultPointStats> stats() const;

  /// True when MFA_FAULT_POINT consults the registry in this build.
  static constexpr bool compiled_in();

 private:
  FaultInjector() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace mfa::common

#if !defined(NDEBUG) || defined(MFA_FORCE_FAULT_INJECTION)
#define MFA_FAULT_INJECTION_ON 1
#else
#define MFA_FAULT_INJECTION_ON 0
#endif

namespace mfa::common {
constexpr bool FaultInjector::compiled_in() {
  return MFA_FAULT_INJECTION_ON == 1;
}
}  // namespace mfa::common

#if MFA_FAULT_INJECTION_ON
/// True when the named fault point is armed and its trigger fires now.
#define MFA_FAULT_POINT(name) \
  (::mfa::common::FaultInjector::instance().should_fire(name))
#else
// Literal false: the guarded branch is removed entirely by the optimiser.
#define MFA_FAULT_POINT(name) (false)
#endif
