// Library version, as macros (preprocessor-testable by downstream code)
// and as constexpr accessors.  The version participates in the persistent
// result cache (src/io/result_cache.h): every cache entry records the
// version string that produced it, and entries from a different version
// are treated as stale and re-solved, so a solver change can never serve
// outdated bounds.  Keep in sync with the project() version in the
// top-level CMakeLists.txt.
#pragma once

#define DELTANC_VERSION_MAJOR 1
#define DELTANC_VERSION_MINOR 1
#define DELTANC_VERSION_PATCH 2

#define DELTANC_VERSION_STRING "1.1.2"

namespace deltanc {

/// "major.minor.patch", e.g. "1.1.0".
[[nodiscard]] constexpr const char* version_string() noexcept {
  return DELTANC_VERSION_STRING;
}

[[nodiscard]] constexpr int version_major() noexcept {
  return DELTANC_VERSION_MAJOR;
}
[[nodiscard]] constexpr int version_minor() noexcept {
  return DELTANC_VERSION_MINOR;
}
[[nodiscard]] constexpr int version_patch() noexcept {
  return DELTANC_VERSION_PATCH;
}

}  // namespace deltanc
