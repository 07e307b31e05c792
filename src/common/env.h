// On/off environment switches (MFA_POOL, MFA_OBS, MFA_SANITIZE_STORAGE,
// MFA_CHECK_FINITE_GRADS): one spelling set for every library knob.
#pragma once

namespace mfa::env {

/// Interprets `value`, the setting of on/off knob `name`: "1", "on" and
/// "true" mean on; "0", "off" and "false" mean off. Null or empty keeps
/// `fallback`; any other value logs a warning naming `name` and keeps
/// `fallback`.
bool parse_flag(const char* name, const char* value, bool fallback);

/// parse_flag() applied to the current value of environment variable `name`.
bool flag(const char* name, bool fallback);

}  // namespace mfa::env
