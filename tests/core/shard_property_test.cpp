// Sharding property: a random plan of window faults — global and
// targeted link flaps, ring stalls, host crashes and port blackholes —
// yields byte-identical artifacts at every shard count, and so does one
// that adds the random faults (GE loss, corruption, pool pressure).
// This is what Cluster::build_faults() must keep: one injector per shard
// over the shard-filtered plan, drawing on its own links' streams,
// behaves exactly like the serial run's single injector over the whole
// plan.  The watchdog is armed so its one heartbeat path runs at every
// shard count too.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/serialize.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

constexpr int kHosts = 6;
constexpr Nanos kWarmup = 1 * kMillisecond;
constexpr Nanos kDuration = 3 * kMillisecond;

struct Artifacts {
  std::string metrics_json;
  std::string trace_csv;
  FaultCounters faults;
};

Artifacts run_with_shards(ExperimentConfig config, int shards) {
  config.shards = shards;
  const Metrics metrics = run_experiment(config);
  std::ostringstream trace;
  write_trace_csv(trace, metrics.trace);
  return Artifacts{metrics_to_json(metrics), trace.str(), metrics.faults};
}

/// A window somewhere in the run, 50-400us long.
std::pair<Nanos, Nanos> draw_window(Rng& rng) {
  const Nanos end = kWarmup + kDuration;
  const Nanos at = 200 * kMicrosecond +
                   static_cast<Nanos>(rng.next_below(
                       static_cast<std::uint64_t>(end - 600 * kMicrosecond)));
  const Nanos length =
      50 * kMicrosecond +
      static_cast<Nanos>(rng.next_below(350 * kMicrosecond));
  return {at, length};
}

/// A host index, or -1 ("every host") when `global_ok` and a coin says so.
int draw_target(Rng& rng, bool global_ok) {
  if (global_ok && rng.chance(0.3)) return -1;
  return static_cast<int>(rng.next_below(kHosts));
}

/// A small switched incast under 1-6 random window faults.
ExperimentConfig random_plan_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.topology.num_hosts = kHosts;
  config.topology.switch_buffer = 128 * kKiB;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = kHosts - 1;
  config.obs.trace_capacity = 200;
  config.warmup = kWarmup;
  config.duration = kDuration;
  // min_rto is 2ms, so one window can silence the run for a few ms; 20
  // quiet 250us polls (5ms) outlast the whole 4ms run, so the watchdog
  // never trips — it is armed for its heartbeat path, not to catch.
  config.watchdog.period = 250 * kMicrosecond;
  config.watchdog.max_stalled_periods = 20;

  Rng rng(seed);
  FaultPlan& plan = config.faults;
  const int windows = 1 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < windows; ++i) {
    const auto [at, length] = draw_window(rng);
    switch (rng.next_below(4)) {
      case 0:
        plan.link_flaps.push_back(LinkFlap{at, length, draw_target(rng, true)});
        break;
      case 1:
        plan.ring_stalls.push_back(
            RingStall{at, length, /*queue=*/-1, draw_target(rng, true)});
        break;
      case 2:
        plan.host_crashes.push_back(
            HostCrash{at, length, draw_target(rng, false)});
        break;
      default:
        plan.port_blackholes.push_back(
            PortBlackhole{at, length, draw_target(rng, false)});
        break;
    }
  }
  return config;
}

/// random_plan_config(seed)'s window faults plus random GE loss,
/// corruption and one pool-pressure window: every kind of random fault
/// draw, on every link.
ExperimentConfig random_draw_config(std::uint64_t seed) {
  ExperimentConfig config = random_plan_config(seed);
  Rng rng(seed + 1000);
  FaultPlan& plan = config.faults;
  plan.gilbert_elliott = GilbertElliottConfig::for_average_loss(
      1e-3 + 4e-3 * rng.next_double(), 2.0 + 8.0 * rng.next_double());
  plan.corrupt_rate = 2e-3 * rng.next_double();
  const auto [at, length] = draw_window(rng);
  plan.pool_pressure.push_back(
      PoolPressure{at, length, 0.2 + 0.6 * rng.next_double()});
  return config;
}

/// Every FaultCounters field, for whole-struct comparison.
std::array<std::uint64_t, 11> fields(const FaultCounters& c) {
  return {c.random_drops, c.bursty_drops, c.flap_drops, c.corrupt_frames,
          c.flaps, c.ring_stall_drops, c.pool_denials, c.watchdog_trips,
          c.host_crashes, c.crash_drops, c.blackhole_drops};
}

/// Runs `config` serially and at 2 and 4 shards: every artifact and
/// fault counter must match the serial run's.  Returns the serial run's
/// fault counters.
FaultCounters expect_shards_match_serial(const ExperimentConfig& config) {
  const Artifacts serial = run_with_shards(config, 1);
  EXPECT_EQ(serial.faults.watchdog_trips, 0u);
  for (int shards : {2, 4}) {
    const Artifacts sharded = run_with_shards(config, shards);
    EXPECT_EQ(serial.metrics_json, sharded.metrics_json)
        << "metrics diverged at " << shards << " shards";
    EXPECT_EQ(serial.trace_csv, sharded.trace_csv)
        << "trace diverged at " << shards << " shards";
    EXPECT_EQ(fields(serial.faults), fields(sharded.faults))
        << "fault counters diverged at " << shards << " shards";
  }
  return serial.faults;
}

TEST(ShardProperty, RandomWindowFaultPlansMatchSerial) {
  std::uint64_t fault_events = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("plan seed " + std::to_string(seed));
    const ExperimentConfig config = random_plan_config(seed);
    // Window faults keep the run shardable, so K = 4 is real.
    ExperimentConfig four = config;
    four.shards = 4;
    ASSERT_EQ(Cluster(four).num_shards(), 4);
    const FaultCounters serial = expect_shards_match_serial(config);
    fault_events += serial.flaps + serial.host_crashes +
                    serial.ring_stall_drops + serial.blackhole_drops;
  }
  // The plans must actually have bitten for the property to mean much.
  EXPECT_GT(fault_events, 0u);
}

TEST(ShardProperty, RandomDrawFaultPlansMatchSerial) {
  FaultCounters drawn;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("plan seed " + std::to_string(seed));
    const ExperimentConfig config = random_draw_config(seed);
    // Each link draws from its own stream, so random faults shard too.
    ExperimentConfig four = config;
    four.shards = 4;
    ASSERT_EQ(Cluster(four).num_shards(), 4);
    const FaultCounters serial = expect_shards_match_serial(config);
    drawn.bursty_drops += serial.bursty_drops;
    drawn.corrupt_frames += serial.corrupt_frames;
    drawn.pool_denials += serial.pool_denials;
  }
  EXPECT_GT(drawn.bursty_drops, 0u);
  EXPECT_GT(drawn.corrupt_frames, 0u);
  EXPECT_GT(drawn.pool_denials, 0u);
}

}  // namespace
}  // namespace hostsim
