// Flag helpers shared by the command-line tools: `--name=value` matching
// and strict numeric values.  A malformed number never runs as 0: the
// tool exits 2 with a one-line message instead.
#ifndef HOSTSIM_TOOLS_FLAGS_H
#define HOSTSIM_TOOLS_FLAGS_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

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

/// The whole value as an integer (parse_int): "", "12x" and "1.5" exit 2.
inline std::int64_t int_flag(std::string_view value, const char* what) {
  const std::optional<std::int64_t> parsed = parse_int(value);
  if (!parsed) invalid_flag(what, value, "an integer");
  return *parsed;
}

/// The whole value as a number (parse_num): "" and "12x" exit 2.
inline double num_flag(std::string_view value, const char* what) {
  const std::optional<double> parsed = parse_num(value);
  if (!parsed) invalid_flag(what, value, "a number");
  return *parsed;
}

}  // namespace hostsim::tools

#endif  // HOSTSIM_TOOLS_FLAGS_H
