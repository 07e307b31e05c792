#include "common/check.h"

#include <atomic>
#include <cmath>

#include "common/env.h"

namespace mfa::check {

namespace {

std::atomic<bool>& finite_grad_flag() {
  static std::atomic<bool> flag{env::flag("MFA_CHECK_FINITE_GRADS", false)};
  return flag;
}

}  // namespace

bool finite_grad_checks_enabled() {
  return finite_grad_flag().load(std::memory_order_relaxed);
}

void set_finite_grad_checks(bool on) {
  finite_grad_flag().store(on, std::memory_order_relaxed);
}

void check_all_finite(const float* data, std::int64_t n, const char* what) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) {
      std::ostringstream oss;
      oss << "non-finite value " << data[i] << " at flat index " << i
          << " of " << n << " in " << what;
      throw CheckError(oss.str());
    }
  }
}

namespace detail {

std::string vec_str(const std::vector<std::int64_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

CheckMessage::CheckMessage(const char* file, int line, const char* expr) {
  oss_ << file << ":" << line << ": check failed: " << expr;
}

FailValues shape_fail(const std::vector<std::int64_t>& a,
                      const std::vector<std::int64_t>& b) {
  if (a == b) return std::nullopt;
  return std::make_pair(vec_str(a), vec_str(b));
}

FailValues bounds_fail(long long index, long long size) {
  if (index >= 0 && index < size) return std::nullopt;
  return std::make_pair(std::to_string(index), std::to_string(size));
}

std::optional<double> finite_fail(double v) {
  if (std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace detail
}  // namespace mfa::check
