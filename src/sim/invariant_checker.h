// End-of-run invariant checking and a liveness watchdog.
//
// InvariantChecker is a registry of named checks.  Components register
// closures that inspect their state and return a diagnostic string on
// violation (or nothing when the invariant holds); run() sweeps them all
// and collects every failure, so a broken run reports the complete
// picture instead of dying on the first assert.
//
// Watchdog detects two failure shapes a finished-looking run can hide:
//  * stalls — simulated time advances but a progress counter does not,
//    while the run is supposed to be active (e.g. a flow wedged in
//    recovery with a dead timer); and
//  * livelock — events execute but simulated time stops advancing
//    (a zero-delay event storm), caught by the executor's per-loop
//    event-count hook, which a purely time-scheduled check could never
//    see.
//
// Both ride the ShardedExecutor at every shard count (a serial run is
// its one-shard case): the progress check polls at the executor's
// heartbeat, after every event up to the tick, and the storm guard
// reports to the watchdog on the calling thread.  Both are sim-level and
// fully generic: upper layers wire in probes.
#ifndef HOSTSIM_SIM_INVARIANT_CHECKER_H
#define HOSTSIM_SIM_INVARIANT_CHECKER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/units.h"

namespace hostsim {

class ShardedExecutor;

/// One failed invariant: which check, and a human-readable diagnostic
/// naming the offending object(s).
struct InvariantViolation {
  std::string check;
  std::string detail;
};

class InvariantChecker {
 public:
  /// A check returns std::nullopt when the invariant holds, or a
  /// diagnostic string when it is violated.
  using Check = std::function<std::optional<std::string>()>;

  /// Registers a named check; checks run in registration order.
  void add_check(std::string name, Check check);

  /// Runs every check and returns the collected violations (empty when
  /// the run is clean).  Never throws or aborts by itself.
  std::vector<InvariantViolation> run();

  std::size_t num_checks() const { return checks_.size(); }

  /// Formats violations as a multi-line report ("" when clean).
  static std::string format(const std::vector<InvariantViolation>& violations);

 private:
  struct Named {
    std::string name;
    Check check;
  };
  std::vector<Named> checks_;
};

struct WatchdogConfig {
  /// Progress-check interval in simulated time; 0 disables the watchdog.
  Nanos period = 0;
  /// Consecutive zero-progress periods (while active) before tripping.
  int max_stalled_periods = 3;
  /// Executed-event budget with frozen simulated time before a livelock
  /// trip; 0 disables event-storm detection.
  std::uint64_t event_storm_budget = 2'000'000;

  bool enabled() const { return period > 0; }

  /// A watchdog tuned for a run of the given duration: checks every
  /// ~1/20th of the run, trips after ~3 silent checks.
  static WatchdogConfig for_duration(Nanos duration);
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// `progress` is any monotone activity counter (bytes delivered,
  /// transactions completed); `active` reports whether zero progress is
  /// legitimate (idle) or a stall (work outstanding).
  void set_progress_probe(std::function<std::uint64_t()> probe) {
    progress_probe_ = std::move(probe);
  }
  void set_activity_probe(std::function<bool()> probe) {
    activity_probe_ = std::move(probe);
  }
  /// Invoked (once) on a trip with a diagnostic; default: postcondition
  /// failure via ensure(), i.e. abort (or ContractViolation in tests).
  void set_on_trip(std::function<void(const std::string&)> handler) {
    on_trip_ = std::move(handler);
  }

  /// Starts checking until `until` (simulated time): a progress check at
  /// every `period` heartbeat of `executor`, plus its storm guard.  The
  /// watchdog must outlive the executor's runs.
  void arm(ShardedExecutor& executor, Nanos until);

  std::uint64_t trips() const { return trips_; }

 private:
  /// One progress check at heartbeat instant `now`.
  void poll(Nanos now);
  void trip(const std::string& diagnostic);

  WatchdogConfig config_;
  std::function<std::uint64_t()> progress_probe_;
  std::function<bool()> activity_probe_;
  std::function<void(const std::string&)> on_trip_;

  Nanos until_ = 0;
  std::uint64_t last_progress_ = 0;
  int stalled_periods_ = 0;
  std::uint64_t trips_ = 0;
  bool armed_ = false;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_INVARIANT_CHECKER_H
