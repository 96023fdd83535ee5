// Positional-argument parsing for the examples: every argument must parse
// in full, and anything else prints the program's usage line and exits 2.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace bsio::examples {

[[noreturn]] inline void usage_exit(const char* usage) {
  std::fprintf(stderr, "usage: %s\n", usage);
  std::exit(2);
}

// An overlap percentage in [0, 100), returned as a fraction.
inline double overlap_arg(const char* arg, const char* usage) {
  char* end = nullptr;
  const double pct = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || !(pct >= 0.0 && pct < 100.0))
    usage_exit(usage);
  return pct / 100.0;
}

// A positive task count.
inline std::size_t count_arg(const char* arg, const char* usage) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v <= 0)
    usage_exit(usage);
  return static_cast<std::size_t>(v);
}

}  // namespace bsio::examples
