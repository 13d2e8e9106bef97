#include "sim/invariant_checker.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "sim/contract.h"
#include "sim/event_loop.h"
#include "sim/sharded_executor.h"

namespace hostsim {
namespace {

TEST(InvariantCheckerTest, CollectsEveryViolationWithNames) {
  InvariantChecker checker;
  checker.add_check("always-ok", [] { return std::nullopt; });
  checker.add_check("leak", [] {
    return std::optional<std::string>("2 leaked skbs: id 7, id 9");
  });
  checker.add_check("conservation", [] {
    return std::optional<std::string>("flow 0: delivered 10 != acked 12");
  });

  const auto violations = checker.run();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].check, "leak");
  EXPECT_EQ(violations[0].detail, "2 leaked skbs: id 7, id 9");
  EXPECT_EQ(violations[1].check, "conservation");

  const std::string report = InvariantChecker::format(violations);
  EXPECT_NE(report.find("invariant 'leak' violated"), std::string::npos);
  EXPECT_NE(report.find("id 7"), std::string::npos);
  EXPECT_EQ(InvariantChecker::format({}), "");
}

TEST(InvariantCheckerTest, CleanRunReportsNothing) {
  InvariantChecker checker;
  checker.add_check("a", [] { return std::nullopt; });
  checker.add_check("b", [] { return std::nullopt; });
  EXPECT_TRUE(checker.run().empty());
  EXPECT_EQ(checker.num_checks(), 2u);
}

TEST(ContractTest, ThrowingModeThrowsInsteadOfAborting) {
  ScopedContractMode mode(ContractMode::throwing);
  EXPECT_THROW(ensure(false, "postcondition broke"), ContractViolation);
  EXPECT_THROW(require(false, "precondition broke"), ContractViolation);
  EXPECT_NO_THROW(ensure(true, "fine"));
  try {
    ensure(false, "named diagnostic");
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("named diagnostic"),
              std::string::npos);
  }
}

TEST(ContractTest, ScopedModeRestoresPrevious) {
  EXPECT_EQ(contract_mode(), ContractMode::aborting);
  {
    ScopedContractMode mode(ContractMode::throwing);
    EXPECT_EQ(contract_mode(), ContractMode::throwing);
  }
  EXPECT_EQ(contract_mode(), ContractMode::aborting);
}

// Every watchdog rides an executor; a serial run is its one-loop case.
TEST(WatchdogTest, TripsOnZeroProgressWhileActive) {
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  WatchdogConfig config;
  config.period = 100;
  Watchdog watchdog(config);
  std::string diagnostic;
  watchdog.set_progress_probe([] { return 5u; });  // forever stuck
  watchdog.set_activity_probe([] { return true; });
  watchdog.set_on_trip([&diagnostic](const std::string& d) { diagnostic = d; });
  watchdog.arm(executor, 10'000);

  executor.run_until(10'000);
  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_NE(diagnostic.find("no progress"), std::string::npos);
  EXPECT_NE(diagnostic.find("stuck at 5"), std::string::npos);
}

TEST(WatchdogTest, StaysQuietWhileProgressAdvances) {
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  WatchdogConfig config;
  config.period = 100;
  Watchdog watchdog(config);
  std::uint64_t counter = 0;
  watchdog.set_progress_probe([&counter] { return ++counter; });
  watchdog.set_activity_probe([] { return true; });
  watchdog.set_on_trip([](const std::string&) { FAIL(); });
  watchdog.arm(executor, 10'000);

  executor.run_until(10'000);
  EXPECT_EQ(watchdog.trips(), 0u);
}

TEST(WatchdogTest, IdleRunsAreNotStalls) {
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  WatchdogConfig config;
  config.period = 100;
  Watchdog watchdog(config);
  watchdog.set_progress_probe([] { return 0u; });
  watchdog.set_activity_probe([] { return false; });  // legitimately idle
  watchdog.set_on_trip([](const std::string&) { FAIL(); });
  watchdog.arm(executor, 10'000);

  executor.run_until(10'000);
  EXPECT_EQ(watchdog.trips(), 0u);
}

TEST(WatchdogTest, DetectsZeroDelayEventStorm) {
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  WatchdogConfig config;
  config.period = kMillisecond;
  config.event_storm_budget = 1000;
  Watchdog watchdog(config);
  std::string diagnostic;
  watchdog.set_on_trip([&diagnostic](const std::string& d) { diagnostic = d; });
  watchdog.arm(executor, 10 * kMillisecond);

  // A livelocked component: reschedules itself at zero delay, so
  // simulated time never advances and time-based ticks never fire.  The
  // storm guard ends the run call at the trip.
  std::function<void()> storm = [&] { loop.schedule_after(0, storm); };
  loop.schedule_after(0, storm);
  executor.run_until(10 * kMillisecond);

  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_NE(diagnostic.find("livelock"), std::string::npos);
  EXPECT_EQ(loop.now(), 0);  // tripped with the clock still frozen
}

// A storm on a worker shard reaches the watchdog on the calling thread,
// like any other worker exception, and trips it exactly once even when
// the caller runs on after the trip.
TEST(WatchdogTest, WorkerShardStormTripsOnTheCallingThread) {
  EventLoop a;
  EventLoop b;
  ShardedExecutor executor({&a, &b}, /*lookahead=*/1'000);
  WatchdogConfig config;
  config.period = kMillisecond;
  config.event_storm_budget = 1000;
  Watchdog watchdog(config);
  std::string diagnostic;
  std::thread::id tripped_on;
  watchdog.set_on_trip([&](const std::string& d) {
    diagnostic = d;
    tripped_on = std::this_thread::get_id();
  });
  watchdog.arm(executor, 10 * kMillisecond);

  std::function<void()> storm = [&] { b.schedule_after(0, storm); };
  b.schedule_at(300, storm);
  a.schedule_at(100, [] {});
  executor.run_until(10 * kMillisecond);
  executor.run_until(10 * kMillisecond);

  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_EQ(tripped_on, std::this_thread::get_id());
  EXPECT_NE(diagnostic.find("livelock"), std::string::npos);
  EXPECT_NE(diagnostic.find("frozen at 300ns"), std::string::npos);
  EXPECT_EQ(b.now(), 300);
}

TEST(WatchdogTest, DefaultTripIsAPostconditionFailure) {
  ScopedContractMode mode(ContractMode::throwing);
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  WatchdogConfig config;
  config.period = 100;
  Watchdog watchdog(config);
  watchdog.set_progress_probe([] { return 0u; });
  watchdog.arm(executor, 10'000);  // no on_trip handler installed
  EXPECT_THROW(executor.run_until(10'000), ContractViolation);
  EXPECT_EQ(watchdog.trips(), 1u);
}

TEST(WatchdogConfigTest, ForDurationScalesThePeriod) {
  const WatchdogConfig config = WatchdogConfig::for_duration(100 * kMillisecond);
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.period, 5 * kMillisecond);
  EXPECT_EQ(WatchdogConfig::for_duration(kMillisecond).period, kMillisecond);
}

}  // namespace
}  // namespace hostsim
