// Environment-variable helpers used by the harness profiles and runtime
// configuration (FOCUS_NUM_THREADS, FOCUS_TRACE, ...).
//
// Integer parsing is strict: a set-but-malformed value (garbage, trailing
// characters, overflow, or out of the caller's accepted range) never
// silently misconfigures the process — it logs a warning and falls back to
// the caller's default. Only an *unset* variable falls back silently.
#ifndef FOCUS_UTILS_ENV_H_
#define FOCUS_UTILS_ENV_H_

#include <cerrno>
#include <cstdlib>
#include <string>

#include "utils/logging.h"

namespace focus {

inline std::string GetEnvOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : fallback;
}

// Parses env var `name` as a base-10 integer into the inclusive range
// [min_value, max_value]. Unset => `fallback` (silently). Set but empty,
// non-numeric, partially numeric ("8x"), overflowing, or out of range =>
// `fallback` with a logged warning naming the variable and the bad value.
inline long GetEnvIntInRangeOr(const char* name, long fallback, long min_value,
                               long max_value) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  const bool consumed_digits = end != v;
  while (*end == ' ' || *end == '\t') ++end;  // forgive shell-quoting spaces
  if (!consumed_digits || *end != '\0') {
    FOCUS_LOG(Warning) << name << "='" << v
                       << "' is not an integer; using default " << fallback;
    return fallback;
  }
  if (errno == ERANGE || parsed < min_value || parsed > max_value) {
    FOCUS_LOG(Warning) << name << "='" << v << "' is outside [" << min_value
                       << ", " << max_value << "]; using default " << fallback;
    return fallback;
  }
  return parsed;
}

}  // namespace focus

#endif  // FOCUS_UTILS_ENV_H_
