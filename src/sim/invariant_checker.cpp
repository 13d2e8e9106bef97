#include "sim/invariant_checker.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"
#include "sim/sharded_executor.h"

namespace hostsim {

void InvariantChecker::add_check(std::string name, Check check) {
  require(static_cast<bool>(check), "invariant check must be callable");
  checks_.push_back(Named{std::move(name), std::move(check)});
}

std::vector<InvariantViolation> InvariantChecker::run() {
  std::vector<InvariantViolation> violations;
  for (const Named& named : checks_) {
    if (auto detail = named.check()) {
      violations.push_back(InvariantViolation{named.name, std::move(*detail)});
    }
  }
  return violations;
}

std::string InvariantChecker::format(
    const std::vector<InvariantViolation>& violations) {
  std::string report;
  for (const InvariantViolation& violation : violations) {
    report += "invariant '" + violation.check + "' violated: " +
              violation.detail + "\n";
  }
  return report;
}

WatchdogConfig WatchdogConfig::for_duration(Nanos duration) {
  WatchdogConfig config;
  config.period = std::max<Nanos>(duration / 20, kMillisecond);
  config.max_stalled_periods = 3;
  return config;
}

Watchdog::Watchdog(WatchdogConfig config) : config_(config) {
  require(config.period >= 0, "watchdog period must be nonnegative");
  require(config.max_stalled_periods > 0,
          "watchdog needs at least one stalled period");
}

void Watchdog::arm(ShardedExecutor& executor, Nanos until) {
  require(config_.enabled(), "arming a disabled watchdog");
  require(!armed_, "watchdog already armed");
  armed_ = true;
  until_ = until;
  last_progress_ = progress_probe_ ? progress_probe_() : 0;
  executor.set_heartbeat(config_.period, [this](Nanos now) { poll(now); });
  executor.set_storm_budget(config_.event_storm_budget,
                            [this](const std::string& d) { trip(d); });
}

void Watchdog::poll(Nanos now) {
  if (trips_ > 0 || now >= until_) return;
  const std::uint64_t progress = progress_probe_ ? progress_probe_() : 0;
  const bool active = activity_probe_ ? activity_probe_() : true;
  if (active && progress == last_progress_) {
    if (++stalled_periods_ >= config_.max_stalled_periods) {
      trip("no progress for " +
           std::to_string(stalled_periods_ * config_.period / kMillisecond) +
           "ms of simulated time while flows are active (progress counter "
           "stuck at " +
           std::to_string(progress) + ")");
      return;
    }
  } else {
    stalled_periods_ = 0;
  }
  last_progress_ = progress;
}

void Watchdog::trip(const std::string& diagnostic) {
  if (trips_ > 0) return;
  ++trips_;
  if (on_trip_) {
    on_trip_(diagnostic);
  } else {
    ensure(false, ("watchdog tripped: " + diagnostic).c_str());
  }
}

}  // namespace hostsim
