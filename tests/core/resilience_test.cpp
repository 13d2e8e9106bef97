// Resilient RPC layer end-to-end: mid-run host crashes and switch-port
// blackholes are masked by deadline/retry/reconnect clients (zero
// permanently failed requests) and measurably not masked without the
// retry budget; recovery metrics populate and round-trip through JSON;
// chaos runs stay bit-identical across reruns and parallel sweeps; and
// legacy no-fault documents keep their exact canonical form.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sim/contract.h"
#include "sweep/artifact.h"
#include "sweep/campaign.h"
#include "sweep/runner.h"

namespace hostsim {
namespace {

/// A scaled-down chaos_recovery point: 4 RPC clients on 4 sender hosts
/// fan in through the switch; a 2ms fault window opens at t=8ms.
ExperimentConfig chaos_config(bool retries) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 4;
  config.traffic.rpc_size = 16 * kKiB;
  config.topology.num_hosts = 5;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 256 * kKiB;
  config.topology.switch_ecn_bytes = 64 * kKiB;
  config.warmup = 4 * kMillisecond;
  config.duration = 10 * kMillisecond;
  config.stack.max_consecutive_rtos = 4;
  config.traffic.resilience.enabled = true;
  config.traffic.resilience.deadline = 1 * kMillisecond;
  config.traffic.resilience.max_retries = retries ? 8 : 0;
  config.traffic.resilience.backoff_base = 250 * kMicrosecond;
  config.traffic.resilience.backoff_cap = 2 * kMillisecond;
  config.traffic.resilience.breaker_threshold = 4;
  config.traffic.resilience.breaker_cooldown = 2 * kMillisecond;
  return config;
}

ExperimentConfig crash_config(bool retries) {
  ExperimentConfig config = chaos_config(retries);
  config.faults.host_crashes.push_back(
      {8 * kMillisecond, 2 * kMillisecond, 0});
  return config;
}

ExperimentConfig blackhole_config(bool retries) {
  ExperimentConfig config = chaos_config(retries);
  config.faults.port_blackholes.push_back(
      {8 * kMillisecond, 2 * kMillisecond, 0});
  return config;
}

TEST(ResilienceTest, CrashWithRetriesMasksEveryFailure) {
  const Metrics m = run_experiment(crash_config(/*retries=*/true));
  ASSERT_TRUE(m.has_recovery);
  EXPECT_EQ(m.recovery.rpc_failed, 0u);
  EXPECT_GT(m.recovery.reconnects, 0u);
  EXPECT_GT(m.recovery.rpc_retries, 0u);
  EXPECT_GT(m.recovery.sockets_killed, 0u);
  EXPECT_EQ(m.faults.host_crashes, 1u);
  EXPECT_GE(m.recovery.time_to_recover, 0);
  EXPECT_GT(m.recovery.pre_fault_gbps, 0.0);
  EXPECT_EQ(m.invariant_violations, 0u);
}

TEST(ResilienceTest, CrashWithoutRetriesFailsRequests) {
  const Metrics m = run_experiment(crash_config(/*retries=*/false));
  ASSERT_TRUE(m.has_recovery);
  EXPECT_GT(m.recovery.rpc_failed, 0u);
  EXPECT_EQ(m.recovery.rpc_retries, 0u);
  EXPECT_EQ(m.invariant_violations, 0u);
}

TEST(ResilienceTest, BlackholeExpiresDeadlinesAndRecovers) {
  const Metrics m = run_experiment(blackhole_config(/*retries=*/true));
  ASSERT_TRUE(m.has_recovery);
  // A blackhole gives no RST: the only failure signal is the deadline.
  EXPECT_GT(m.recovery.rpc_timeouts, 0u);
  EXPECT_EQ(m.recovery.rpc_failed, 0u);
  EXPECT_GT(m.faults.blackhole_drops, 0u);
  EXPECT_EQ(m.invariant_violations, 0u);
}

// Satellite: a LinkFlap overlapping a RingStall on the same host must
// reproduce bit-identically run over run.
TEST(ResilienceTest, FlapOverlappingStallIsBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 2;
  config.warmup = 4 * kMillisecond;
  config.duration = 6 * kMillisecond;
  config.faults.link_flaps.push_back({6 * kMillisecond, 1 * kMillisecond});
  config.faults.ring_stalls.push_back(
      {6500 * kMicrosecond, 1 * kMillisecond, -1, 1});
  const Metrics a = run_experiment(config);
  const Metrics b = run_experiment(config);
  EXPECT_GT(a.faults.flap_drops + a.faults.ring_stall_drops, 0u);
  EXPECT_EQ(metrics_to_json(a), metrics_to_json(b));
}

// Satellite: chaos campaign artifacts are bit-identical between a
// serial run and a --jobs=8 run.
TEST(ResilienceTest, ChaosSweepParallelScheduleIsBitIdentical) {
  sweep::Campaign campaign;
  campaign.name = "chaos_mini";
  campaign.description = "crash vs blackhole, retries on";
  campaign.base = crash_config(/*retries=*/true);
  campaign.base.faults = {};
  FaultPlan crash;
  crash.host_crashes.push_back({8 * kMillisecond, 2 * kMillisecond, 0});
  FaultPlan blackhole;
  blackhole.port_blackholes.push_back(
      {8 * kMillisecond, 2 * kMillisecond, 0});
  campaign.axes.push_back(sweep::Axis::fault_plans(
      {{"crash", crash}, {"blackhole", blackhole}}));

  sweep::RunnerOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  sweep::RunnerOptions parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;
  const sweep::CampaignResult a = sweep::run_campaign(campaign, serial);
  const sweep::CampaignResult b = sweep::run_campaign(campaign, parallel);
  EXPECT_EQ(sweep::campaign_to_json(a, "test"),
            sweep::campaign_to_json(b, "test"));
  EXPECT_EQ(sweep::campaign_to_csv(a, "test"),
            sweep::campaign_to_csv(b, "test"));
}

// Satellite: Metrics recovery fields survive a JSON round trip.
TEST(ResilienceTest, RecoveryMetricsJsonRoundTrip) {
  Metrics m;
  m.has_recovery = true;
  m.recovery.time_to_recover = 750 * kMicrosecond;
  m.recovery.pre_fault_gbps = 34.5;
  m.recovery.rpc_retries = 7;
  m.recovery.rpc_timeouts = 4;
  m.recovery.rpc_resets = 3;
  m.recovery.rpc_failed = 2;
  m.recovery.breaker_opens = 1;
  m.recovery.reconnects = 6;
  m.recovery.sockets_killed = 12;
  m.recovery.bytes_destroyed = 65536;
  m.faults.host_crashes = 1;
  m.faults.crash_drops = 42;
  m.faults.blackhole_drops = 17;

  const std::optional<Metrics> parsed = metrics_from_json(metrics_to_json(m));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_recovery);
  EXPECT_EQ(parsed->recovery.time_to_recover, m.recovery.time_to_recover);
  EXPECT_DOUBLE_EQ(parsed->recovery.pre_fault_gbps,
                   m.recovery.pre_fault_gbps);
  EXPECT_EQ(parsed->recovery.rpc_retries, m.recovery.rpc_retries);
  EXPECT_EQ(parsed->recovery.rpc_timeouts, m.recovery.rpc_timeouts);
  EXPECT_EQ(parsed->recovery.rpc_resets, m.recovery.rpc_resets);
  EXPECT_EQ(parsed->recovery.rpc_failed, m.recovery.rpc_failed);
  EXPECT_EQ(parsed->recovery.breaker_opens, m.recovery.breaker_opens);
  EXPECT_EQ(parsed->recovery.reconnects, m.recovery.reconnects);
  EXPECT_EQ(parsed->recovery.sockets_killed, m.recovery.sockets_killed);
  EXPECT_EQ(parsed->recovery.bytes_destroyed, m.recovery.bytes_destroyed);
  EXPECT_EQ(parsed->faults.host_crashes, m.faults.host_crashes);
  EXPECT_EQ(parsed->faults.crash_drops, m.faults.crash_drops);
  EXPECT_EQ(parsed->faults.blackhole_drops, m.faults.blackhole_drops);
}

// Satellite: legacy no-fault metrics documents carry none of the new
// keys, so their serialized form — and every baseline built on it — is
// byte-identical to before the resilience layer existed.
TEST(ResilienceTest, LegacyDocumentsCarryNoResilienceKeys) {
  const Metrics metrics;
  const std::string metrics_json = metrics_to_json(metrics);
  EXPECT_EQ(metrics_json.find("recovery"), std::string::npos);
  EXPECT_EQ(metrics_json.find("host_crashes"), std::string::npos);
  EXPECT_EQ(metrics_json.find("crash_drops"), std::string::npos);
  EXPECT_EQ(metrics_json.find("blackhole_drops"), std::string::npos);
  const std::optional<Metrics> parsed = metrics_from_json(metrics_json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->has_recovery);

  // A no-fault round keeps its exact per-run document too.
  ExperimentConfig run_config;
  run_config.warmup = 2 * kMillisecond;
  run_config.duration = 3 * kMillisecond;
  const Metrics run = run_experiment(run_config);
  EXPECT_FALSE(run.has_recovery);
  EXPECT_EQ(metrics_to_json(run).find("recovery"), std::string::npos);
}

// Without a retry budget a crash still resets every connection it
// touches: plain clients, servers and long flows observe the reset (and
// stop) instead of dying unreported, so the fault-disposition rule holds
// whichever end of which pattern the crash hits.
TEST(RpcResetTest, PlainEndpointsObserveResets) {
  struct Case {
    const char* name;
    Pattern pattern;
    int hosts;
    int crashed;
    TransportKind transport;
  };
  const Case cases[] = {
      {"rpc, receiver crash", Pattern::rpc_incast, 3, 2, TransportKind::tcp},
      {"rpc, receiver crash, homa", Pattern::rpc_incast, 3, 2,
       TransportKind::homa},
      {"rpc, client crash", Pattern::rpc_incast, 3, 0, TransportKind::tcp},
      {"rpc, two hosts", Pattern::rpc_incast, 2, 1, TransportKind::tcp},
      {"mixed, receiver crash", Pattern::mixed, 2, 1, TransportKind::tcp},
      {"mixed, sender crash", Pattern::mixed, 2, 0, TransportKind::tcp},
  };
  ScopedContractMode mode(ContractMode::throwing);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExperimentConfig config;
    config.traffic.pattern = c.pattern;
    config.traffic.flows = 4;
    config.stack.transport.kind = c.transport;
    config.topology.num_hosts = c.hosts;
    config.topology.use_switch = c.hosts > 2;
    config.faults.host_crashes.push_back(
        {3 * kMillisecond, kMillisecond / 2, c.crashed});
    config.warmup = 1 * kMillisecond;
    config.duration = 8 * kMillisecond;
    Metrics m;
    EXPECT_NO_THROW(m = run_experiment(config));
    EXPECT_EQ(m.invariant_violations, 0u);
    EXPECT_GT(m.recovery.sockets_killed, 0u);
  }
}

}  // namespace
}  // namespace hostsim
