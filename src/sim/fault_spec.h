// Strict parsing for the command-line tools: whole-field numbers for
// every numeric flag, and the fault-spec flags (--ge=, --flap=, --stall=,
// --pressure=, --crash=, --blackhole=).
//
// Each parser consumes one flag value ("AT,DUR[,..]"-style field lists),
// appends to / fills in the FaultPlan on success, and returns a one-line
// actionable error on failure.  Malformed specs — wrong field counts,
// empty fields, non-numeric text, trailing garbage after a number — are
// rejected instead of silently truncated (strtol("12x") used to accept
// the 12 and ignore the x).
#ifndef HOSTSIM_SIM_FAULT_SPEC_H
#define HOSTSIM_SIM_FAULT_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/fault_injector.h"

namespace hostsim {

/// One whole field as a number: the entire text must be consumed, so
/// "12x" and "" are errors (nullopt), not 12 and 0.
std::optional<double> parse_num(std::string_view field);

/// One whole field as a base-10 integer: "1.5", "1e3", "" and values
/// outside int64 are errors (nullopt).
std::optional<std::int64_t> parse_int(std::string_view field);

/// Each returns std::nullopt on success (the plan was updated) or a
/// one-line error message naming the expected format and the offending
/// field.  The plan is untouched on failure.
std::optional<std::string> parse_ge_spec(std::string_view value,
                                         FaultPlan& plan);
std::optional<std::string> parse_flap_spec(std::string_view value,
                                           FaultPlan& plan);
std::optional<std::string> parse_stall_spec(std::string_view value,
                                            FaultPlan& plan);
std::optional<std::string> parse_pressure_spec(std::string_view value,
                                               FaultPlan& plan);
std::optional<std::string> parse_crash_spec(std::string_view value,
                                            FaultPlan& plan);
std::optional<std::string> parse_blackhole_spec(std::string_view value,
                                                FaultPlan& plan);

/// The plan's first window that names a link, host or port outside
/// [0, num_hosts) — a negative flap link or stall host means "every" —
/// as a one-line message, or std::nullopt when every target exists.
std::optional<std::string> check_fault_targets(const FaultPlan& plan,
                                               int num_hosts);

}  // namespace hostsim

#endif  // HOSTSIM_SIM_FAULT_SPEC_H
