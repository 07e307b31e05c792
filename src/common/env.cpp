#include "common/env.h"

#include <cstdlib>
#include <cstring>

#include "common/log.h"

namespace mfa::env {

bool parse_flag(const char* name, const char* value, bool fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  for (const char* on : {"1", "on", "true"})
    if (std::strcmp(value, on) == 0) return true;
  for (const char* off : {"0", "off", "false"})
    if (std::strcmp(value, off) == 0) return false;
  log::warn("%s=\"%s\" is not one of 1|on|true|0|off|false; keeping %s", name,
            value, fallback ? "on" : "off");
  return fallback;
}

bool flag(const char* name, bool fallback) {
  return parse_flag(name, std::getenv(name), fallback);
}

}  // namespace mfa::env
