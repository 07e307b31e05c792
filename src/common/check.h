// Runtime invariant checking for the whole library (VPR's vtr_assert in
// spirit, glog's CHECK in syntax).
//
// Two severity tiers:
//  * MFA_CHECK*  — always compiled in. Guards API contracts and data-file
//    integrity at call granularity (per op / per connection, never per
//    element). Failure throws CheckError with file:line, the failed
//    expression, the offending values, and any streamed context:
//
//        MFA_CHECK(n > 0) << "layer " << name << " got an empty batch";
//        MFA_CHECK_EQ(a.numel(), b.numel()) << "in add_";
//        MFA_CHECK_SHAPE(a.shape(), b.shape()) << "conv weight";
//
//  * MFA_DCHECK* — same syntax, but compiled out (condition unevaluated)
//    when NDEBUG is defined and MFA_FORCE_DCHECK is not. Guards per-element
//    invariants in hot loops (grid bounds, non-negative demand) that are too
//    expensive for release builds. MFA_DCHECK_IS_ON reports the active mode.
//
// CheckError derives from std::invalid_argument (and therefore
// std::logic_error): a failed check is a broken programming contract, not an
// environmental condition. I/O and file-format errors stay std::runtime_error.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mfa::check {

/// Thrown by every MFA_CHECK* macro on failure.
class CheckError : public std::invalid_argument {
 public:
  explicit CheckError(const std::string& what) : std::invalid_argument(what) {}
};

/// Runtime toggle for the NaN/Inf gradient scan in Tensor::backward().
/// Off by default (it is O(tape size * tensor size)); seeded from the
/// MFA_CHECK_FINITE_GRADS on/off switch (see common/env.h).
bool finite_grad_checks_enabled();
void set_finite_grad_checks(bool on);

/// Throws CheckError naming `what` if any of data[0..n) is NaN or infinite.
void check_all_finite(const float* data, std::int64_t n, const char* what);

namespace detail {

/// "[2, 3, 4]" — the canonical shape formatting; mfa::shape_str delegates
/// here so check messages and op error messages render shapes identically.
std::string vec_str(const std::vector<std::int64_t>& v);

/// Accumulates the failure message for one failed check.
class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* expr);
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    oss_ << v;
    return *this;
  }
  std::string str() const { return oss_.str(); }

 private:
  std::ostringstream oss_;
};

/// Lower precedence than <<, so it fires after the full message is streamed.
struct Thrower {
  [[noreturn]] void operator&(const CheckMessage& m) const {
    throw CheckError(m.str());
  }
};

template <typename T>
std::string value_str(const T& v) {
  std::ostringstream oss;
  oss << v;
  return oss.str();
}
inline std::string value_str(const std::vector<std::int64_t>& v) {
  return vec_str(v);
}

using FailValues = std::optional<std::pair<std::string, std::string>>;

/// Evaluates both operands exactly once; non-empty result carries their
/// stringified values when the comparison fails.
template <typename A, typename B, typename Op>
FailValues op_fail(const A& a, const B& b, Op op) {
  if (op(a, b)) return std::nullopt;
  return std::make_pair(value_str(a), value_str(b));
}

FailValues shape_fail(const std::vector<std::int64_t>& a,
                      const std::vector<std::int64_t>& b);
FailValues bounds_fail(long long index, long long size);
std::optional<double> finite_fail(double v);

}  // namespace detail
}  // namespace mfa::check

/// MFA_CHECK(cond) << "context";  — throws mfa::check::CheckError when cond
/// is false, after the streamed context has been appended to the message.
#define MFA_CHECK(cond)                                              \
  (__builtin_expect(static_cast<bool>(cond), 1))                     \
      ? (void)0                                                      \
      : ::mfa::check::detail::Thrower{} &                            \
            ::mfa::check::detail::CheckMessage(__FILE__, __LINE__, #cond)

// Binary comparison checks; the message carries both operand values.
// Operands are evaluated exactly once. `while` (not `if`) keeps the macros
// safe inside unbraced if/else; the body throws, so it runs at most once.
#define MFA_CHECK_OP_(a, b, op)                                               \
  while (auto mfa_check_fail_ = ::mfa::check::detail::op_fail(                \
             (a), (b),                                                        \
             [](const auto& x_, const auto& y_) { return x_ op y_; }))        \
  ::mfa::check::detail::Thrower{} &                                           \
      ::mfa::check::detail::CheckMessage(__FILE__, __LINE__,                  \
                                         #a " " #op " " #b)                   \
          << " (" << mfa_check_fail_->first << " vs "                         \
          << mfa_check_fail_->second << ")"

#define MFA_CHECK_EQ(a, b) MFA_CHECK_OP_(a, b, ==)
#define MFA_CHECK_NE(a, b) MFA_CHECK_OP_(a, b, !=)
#define MFA_CHECK_LT(a, b) MFA_CHECK_OP_(a, b, <)
#define MFA_CHECK_LE(a, b) MFA_CHECK_OP_(a, b, <=)
#define MFA_CHECK_GT(a, b) MFA_CHECK_OP_(a, b, >)
#define MFA_CHECK_GE(a, b) MFA_CHECK_OP_(a, b, >=)

/// Exact shape equality; the message shows both shapes as "[2, 3]" strings.
#define MFA_CHECK_SHAPE(a, b)                                                 \
  while (auto mfa_check_fail_ = ::mfa::check::detail::shape_fail((a), (b)))   \
  ::mfa::check::detail::Thrower{} &                                           \
      ::mfa::check::detail::CheckMessage(__FILE__, __LINE__,                  \
                                         #a " matches " #b)                   \
          << " (" << mfa_check_fail_->first << " vs "                         \
          << mfa_check_fail_->second << ")"

/// 0 <= index < size.
#define MFA_CHECK_BOUNDS(index, size)                                         \
  while (auto mfa_check_fail_ = ::mfa::check::detail::bounds_fail(            \
             static_cast<long long>(index), static_cast<long long>(size)))    \
  ::mfa::check::detail::Thrower{} &                                           \
      ::mfa::check::detail::CheckMessage(__FILE__, __LINE__,                  \
                                         "0 <= " #index " < " #size)          \
          << " (index " << mfa_check_fail_->first << ", size "                \
          << mfa_check_fail_->second << ")"

/// Value is neither NaN nor infinite.
#define MFA_CHECK_FINITE(v)                                                   \
  while (auto mfa_check_fail_ = ::mfa::check::detail::finite_fail(            \
             static_cast<double>(v)))                                         \
  ::mfa::check::detail::Thrower{} &                                           \
      ::mfa::check::detail::CheckMessage(__FILE__, __LINE__,                  \
                                         #v " is finite")                     \
          << " (value " << *mfa_check_fail_ << ")"

// ---- debug-only tier ----

#if defined(NDEBUG) && !defined(MFA_FORCE_DCHECK)
#define MFA_DCHECK_IS_ON 0
#else
#define MFA_DCHECK_IS_ON 1
#endif

#if MFA_DCHECK_IS_ON
#define MFA_DCHECK(cond) MFA_CHECK(cond)
#define MFA_DCHECK_EQ(a, b) MFA_CHECK_EQ(a, b)
#define MFA_DCHECK_NE(a, b) MFA_CHECK_NE(a, b)
#define MFA_DCHECK_LT(a, b) MFA_CHECK_LT(a, b)
#define MFA_DCHECK_LE(a, b) MFA_CHECK_LE(a, b)
#define MFA_DCHECK_GT(a, b) MFA_CHECK_GT(a, b)
#define MFA_DCHECK_GE(a, b) MFA_CHECK_GE(a, b)
#define MFA_DCHECK_SHAPE(a, b) MFA_CHECK_SHAPE(a, b)
#define MFA_DCHECK_BOUNDS(index, size) MFA_CHECK_BOUNDS(index, size)
#define MFA_DCHECK_FINITE(v) MFA_CHECK_FINITE(v)
#else
// `while (false)` keeps the operands syntax-checked but dead: they are never
// evaluated, and the optimiser removes the whole statement.
#define MFA_DCHECK(cond) \
  while (false) MFA_CHECK(cond)
#define MFA_DCHECK_EQ(a, b) \
  while (false) MFA_CHECK_EQ(a, b)
#define MFA_DCHECK_NE(a, b) \
  while (false) MFA_CHECK_NE(a, b)
#define MFA_DCHECK_LT(a, b) \
  while (false) MFA_CHECK_LT(a, b)
#define MFA_DCHECK_LE(a, b) \
  while (false) MFA_CHECK_LE(a, b)
#define MFA_DCHECK_GT(a, b) \
  while (false) MFA_CHECK_GT(a, b)
#define MFA_DCHECK_GE(a, b) \
  while (false) MFA_CHECK_GE(a, b)
#define MFA_DCHECK_SHAPE(a, b) \
  while (false) MFA_CHECK_SHAPE(a, b)
#define MFA_DCHECK_BOUNDS(index, size) \
  while (false) MFA_CHECK_BOUNDS(index, size)
#define MFA_DCHECK_FINITE(v) \
  while (false) MFA_CHECK_FINITE(v)
#endif
