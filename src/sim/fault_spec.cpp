#include "sim/fault_spec.h"

#include <cerrno>
#include <cstdlib>
#include <vector>

namespace hostsim {
namespace {

/// Splits "a,b,c" into its comma-separated fields (empty fields kept so
/// they can be rejected with a precise message).
std::vector<std::string_view> split_fields(std::string_view value) {
  std::vector<std::string_view> fields;
  while (true) {
    const std::size_t comma = value.find(',');
    fields.push_back(value.substr(0, comma));
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return fields;
}

std::string bad_spec(const char* flag, const char* format,
                     std::string_view value, std::string detail) {
  return std::string(flag) + "=" + std::string(value) + ": " +
         std::move(detail) + " (expected " + flag + "=" + format + ")";
}

struct FieldReader {
  const char* flag;
  const char* format;
  std::string_view value;
  std::vector<std::string_view> fields;
  std::optional<std::string> error;

  FieldReader(const char* flag, const char* format, std::string_view value)
      : flag(flag), format(format), value(value), fields(split_fields(value)) {}

  bool count_between(std::size_t lo, std::size_t hi) {
    if (fields.size() >= lo && fields.size() <= hi) return true;
    error = bad_spec(flag, format, value,
                     "takes " + std::to_string(lo) + ".." +
                         std::to_string(hi) + " comma-separated fields, got " +
                         std::to_string(fields.size()));
    return false;
  }

  /// Field `i` as a number, or records an error naming `what`.
  std::optional<double> num(std::size_t i, const char* what) {
    if (error) return std::nullopt;
    const std::optional<double> parsed = parse_num(fields[i]);
    if (!parsed) {
      error = bad_spec(flag, format, value,
                       std::string(what) + " '" + std::string(fields[i]) +
                           "' is not a number");
    }
    return parsed;
  }
};

Nanos to_ms(double value) {
  return static_cast<Nanos>(value * static_cast<double>(kMillisecond));
}

}  // namespace

std::optional<double> parse_num(std::string_view field) {
  if (field.empty()) return std::nullopt;
  const std::string owned(field);
  char* end = nullptr;
  const double parsed = std::strtod(owned.c_str(), &end);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return parsed;
}

std::optional<std::int64_t> parse_int(std::string_view field) {
  if (field.empty()) return std::nullopt;
  const std::string owned(field);
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(owned.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

std::optional<std::string> parse_ge_spec(std::string_view value,
                                         FaultPlan& plan) {
  FieldReader r("--ge", "AVG[,BURST[,PBAD]]", value);
  if (!r.count_between(1, 3)) return r.error;
  const auto avg = r.num(0, "average loss AVG");
  const auto burst = r.fields.size() > 1
                         ? r.num(1, "burst frames BURST")
                         : std::optional<double>(10.0);
  const auto bad = r.fields.size() > 2 ? r.num(2, "bad-state loss PBAD")
                                       : std::optional<double>(0.5);
  if (r.error) return r.error;
  if (*avg < 0 || *avg >= *bad) {
    return bad_spec("--ge", "AVG[,BURST[,PBAD]]", value,
                    "AVG must satisfy 0 <= AVG < PBAD");
  }
  if (*burst < 1.0) {
    return bad_spec("--ge", "AVG[,BURST[,PBAD]]", value,
                    "BURST must be >= 1 frame");
  }
  plan.gilbert_elliott =
      GilbertElliottConfig::for_average_loss(*avg, *burst, *bad);
  return std::nullopt;
}

std::optional<std::string> parse_flap_spec(std::string_view value,
                                           FaultPlan& plan) {
  FieldReader r("--flap", "AT_MS,DUR_MS[,LINK]", value);
  if (!r.count_between(2, 3)) return r.error;
  const auto at = r.num(0, "start AT_MS");
  const auto dur = r.num(1, "duration DUR_MS");
  const auto link = r.fields.size() > 2 ? r.num(2, "link LINK")
                                        : std::optional<double>(-1.0);
  if (r.error) return r.error;
  if (*dur <= 0) {
    return bad_spec("--flap", "AT_MS,DUR_MS[,LINK]", value,
                    "DUR_MS must be > 0");
  }
  LinkFlap flap;
  flap.at = to_ms(*at);
  flap.duration = to_ms(*dur);
  flap.link = static_cast<int>(*link);
  plan.link_flaps.push_back(flap);
  return std::nullopt;
}

std::optional<std::string> parse_stall_spec(std::string_view value,
                                            FaultPlan& plan) {
  FieldReader r("--stall", "AT_MS,DUR_MS[,QUEUE[,HOST]]", value);
  if (!r.count_between(2, 4)) return r.error;
  const auto at = r.num(0, "start AT_MS");
  const auto dur = r.num(1, "duration DUR_MS");
  const auto queue = r.fields.size() > 2 ? r.num(2, "queue QUEUE")
                                         : std::optional<double>(-1.0);
  const auto host = r.fields.size() > 3 ? r.num(3, "host HOST")
                                        : std::optional<double>(-1.0);
  if (r.error) return r.error;
  if (*dur <= 0) {
    return bad_spec("--stall", "AT_MS,DUR_MS[,QUEUE[,HOST]]", value,
                    "DUR_MS must be > 0");
  }
  RingStall stall;
  stall.at = to_ms(*at);
  stall.duration = to_ms(*dur);
  stall.queue = static_cast<int>(*queue);
  stall.host = static_cast<int>(*host);
  plan.ring_stalls.push_back(stall);
  return std::nullopt;
}

std::optional<std::string> parse_pressure_spec(std::string_view value,
                                               FaultPlan& plan) {
  FieldReader r("--pressure", "AT_MS,DUR_MS[,DENY]", value);
  if (!r.count_between(2, 3)) return r.error;
  const auto at = r.num(0, "start AT_MS");
  const auto dur = r.num(1, "duration DUR_MS");
  const auto deny = r.fields.size() > 2 ? r.num(2, "deny probability DENY")
                                        : std::optional<double>(1.0);
  if (r.error) return r.error;
  if (*dur <= 0) {
    return bad_spec("--pressure", "AT_MS,DUR_MS[,DENY]", value,
                    "DUR_MS must be > 0");
  }
  if (*deny < 0 || *deny > 1) {
    return bad_spec("--pressure", "AT_MS,DUR_MS[,DENY]", value,
                    "DENY must be a probability in [0, 1]");
  }
  PoolPressure pressure;
  pressure.at = to_ms(*at);
  pressure.duration = to_ms(*dur);
  pressure.deny_prob = *deny;
  plan.pool_pressure.push_back(pressure);
  return std::nullopt;
}

std::optional<std::string> parse_crash_spec(std::string_view value,
                                            FaultPlan& plan) {
  FieldReader r("--crash", "HOST,AT_MS,DOWN_MS", value);
  if (!r.count_between(3, 3)) return r.error;
  const auto host = r.num(0, "host HOST");
  const auto at = r.num(1, "start AT_MS");
  const auto down = r.num(2, "downtime DOWN_MS");
  if (r.error) return r.error;
  if (*host < 0) {
    return bad_spec("--crash", "HOST,AT_MS,DOWN_MS", value,
                    "HOST must be >= 0");
  }
  if (*down <= 0) {
    return bad_spec("--crash", "HOST,AT_MS,DOWN_MS", value,
                    "DOWN_MS must be > 0");
  }
  HostCrash crash;
  crash.host = static_cast<int>(*host);
  crash.at = to_ms(*at);
  crash.down_for = to_ms(*down);
  plan.host_crashes.push_back(crash);
  return std::nullopt;
}

std::optional<std::string> parse_blackhole_spec(std::string_view value,
                                                FaultPlan& plan) {
  FieldReader r("--blackhole", "PORT,AT_MS,DUR_MS", value);
  if (!r.count_between(3, 3)) return r.error;
  const auto port = r.num(0, "port PORT");
  const auto at = r.num(1, "start AT_MS");
  const auto dur = r.num(2, "duration DUR_MS");
  if (r.error) return r.error;
  if (*port < 0) {
    return bad_spec("--blackhole", "PORT,AT_MS,DUR_MS", value,
                    "PORT must be >= 0");
  }
  if (*dur <= 0) {
    return bad_spec("--blackhole", "PORT,AT_MS,DUR_MS", value,
                    "DUR_MS must be > 0");
  }
  PortBlackhole hole;
  hole.port = static_cast<int>(*port);
  hole.at = to_ms(*at);
  hole.duration = to_ms(*dur);
  plan.port_blackholes.push_back(hole);
  return std::nullopt;
}

std::optional<std::string> check_fault_targets(const FaultPlan& plan,
                                               int num_hosts) {
  std::optional<std::string> error;
  const auto check = [&](bool global, int id, const char* flag,
                         const char* what) {
    if (error || global || (id >= 0 && id < num_hosts)) return;
    error = std::string(flag) + ": " + what + " " + std::to_string(id) +
            " is outside this " + std::to_string(num_hosts) +
            "-host run (ids 0.." + std::to_string(num_hosts - 1) + ")";
  };
  for (const LinkFlap& f : plan.link_flaps) {
    check(f.link < 0, f.link, "--flap", "link");
  }
  for (const RingStall& s : plan.ring_stalls) {
    check(s.host < 0, s.host, "--stall", "host");
  }
  for (const HostCrash& c : plan.host_crashes) {
    check(false, c.host, "--crash", "host");
  }
  for (const PortBlackhole& b : plan.port_blackholes) {
    check(false, b.port, "--blackhole", "port");
  }
  return error;
}

}  // namespace hostsim
