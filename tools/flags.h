// Flag helpers shared by the command-line tools: `--name=value` matching,
// strict numeric values and output directories.  A malformed number
// never runs as 0, and a directory that cannot be created never surfaces
// as an uncaught exception: the tool exits 2 with a one-line message.
#ifndef HOSTSIM_TOOLS_FLAGS_H
#define HOSTSIM_TOOLS_FLAGS_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/fault_spec.h"

namespace hostsim::tools {

/// The value of `--name=value` (empty for a bare `--name`), or nullopt
/// when `arg` is a different flag.
inline std::optional<std::string_view> flag_value(std::string_view arg,
                                                  std::string_view name) {
  if (arg.substr(0, name.size()) != name) return std::nullopt;
  if (arg.size() == name.size()) return std::string_view{};
  if (arg[name.size()] != '=') return std::nullopt;
  return arg.substr(name.size() + 1);
}

[[noreturn]] inline void invalid_flag(const char* what,
                                      std::string_view value,
                                      const char* expected) {
  std::fprintf(stderr, "invalid %s: '%.*s' (expected %s)\n", what,
               static_cast<int>(value.size()), value.data(), expected);
  std::exit(2);
}

/// The whole value as an integer (parse_int) of at least `min`: "",
/// "12x", "1.5" and values below `min` exit 2.
inline std::int64_t int_flag(
    std::string_view value, const char* what,
    std::int64_t min = std::numeric_limits<std::int64_t>::min()) {
  const std::optional<std::int64_t> parsed = parse_int(value);
  if (!parsed) invalid_flag(what, value, "an integer");
  if (*parsed < min) {
    invalid_flag(what, value,
                 ("an integer >= " + std::to_string(min)).c_str());
  }
  return *parsed;
}

/// The whole value as a number (parse_num) in [min, max]: "", "12x",
/// "nan" and values outside the range exit 2.
inline double num_flag(std::string_view value, const char* what,
                       double min = -HUGE_VAL, double max = HUGE_VAL) {
  const std::optional<double> parsed = parse_num(value);
  if (!parsed || std::isnan(*parsed)) invalid_flag(what, value, "a number");
  if (*parsed < min || *parsed > max) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "a number in [%g, %g]", min,
                  max);
    invalid_flag(what, value, expected);
  }
  return *parsed;
}

/// num_flag for quantities that must be strictly positive (rates).
inline double positive_flag(std::string_view value, const char* what) {
  const double parsed = num_flag(value, what);
  if (parsed <= 0) invalid_flag(what, value, "a number > 0");
  return parsed;
}

/// Creates `dir` and its parents, or exits 2 naming the `what` directory.
inline void create_dir_or_exit(const std::string& dir, const char* what) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s directory '%s': %s\n", what,
                 dir.c_str(), ec.message().c_str());
    std::exit(2);
  }
}

}  // namespace hostsim::tools

#endif  // HOSTSIM_TOOLS_FLAGS_H
