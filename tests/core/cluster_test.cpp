#include "core/cluster.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/patterns.h"
#include "core/serialize.h"
#include "sweep/campaigns.h"

namespace hostsim {
namespace {

ExperimentConfig shortened(ExperimentConfig config) {
  config.warmup = 2 * kMillisecond;
  config.duration = 5 * kMillisecond;
  return config;
}

// The determinism contract of the topology refactor: a 2-host cluster
// routed through a zero-depth (pass-through) switch must produce
// bit-identical metrics JSON to the legacy back-to-back testbed.  The
// uplink already charges serialization + propagation, and the
// pass-through switch forwards at the ingress instant, so the frame
// timeline — and with it every counter — is unchanged.  Exercised on
// real fig03e campaign configs, not synthetic ones.
TEST(ClusterDeterminism, TwoHostPassThroughSwitchMatchesLegacyTestbed) {
  const auto campaign = sweep::find_campaign("fig03e_cache_miss");
  ASSERT_TRUE(campaign.has_value());
  const auto points = campaign->expand();
  ASSERT_GE(points.size(), 4u);
  for (const std::size_t index : {std::size_t{0}, std::size_t{3}}) {
    const ExperimentConfig legacy = shortened(points[index].config);
    ExperimentConfig switched = legacy;
    switched.topology.use_switch = true;  // 2 hosts, buffer 0: pass-through

    const Metrics direct = run_experiment(legacy);
    const Metrics through_switch = run_experiment(switched);
    EXPECT_EQ(metrics_to_json(direct), metrics_to_json(through_switch))
        << "point " << points[index].label();
  }
}

// Adding the topology section to a config must not move legacy cache
// keys: a default TopologyConfig serializes to nothing, so historical
// config hashes (and the sweep result cache built on them) survive.
TEST(ClusterDeterminism, DefaultTopologyLeavesConfigHashUnchanged) {
  ExperimentConfig config;
  const std::uint64_t base = config_hash(config);
  config.topology = TopologyConfig{};
  EXPECT_EQ(config_hash(config), base);

  ExperimentConfig switched;
  switched.topology.use_switch = true;
  EXPECT_NE(config_hash(switched), base);  // non-default topology is keyed
}

TEST(ClusterTest, PatternsExpandAtHostCoreGranularity) {
  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 6;

  Cluster cluster(config);
  Workload workload = build_workload(cluster, config.traffic);
  ASSERT_EQ(cluster.flows_created(), 6);

  // Flow i's source round-robins over the sender hosts first: host
  // i % 3, core i / 3; every flow terminates on the receiver host.
  for (int flow = 0; flow < 6; ++flow) {
    const Cluster::FlowRoute& route = cluster.flow_route(flow);
    EXPECT_EQ(route.src_host, flow % 3) << "flow " << flow;
    EXPECT_EQ(route.dst_host, 3) << "flow " << flow;
    const TransportSocket& at_sender =
        cluster.host(route.src_host).stack().socket(flow);
    EXPECT_EQ(at_sender.app_core(), flow / 3) << "flow " << flow;
  }
  // Incast: all six flows share one receiver application core.
  const int rx_core = cluster.host(3).stack().socket(0).app_core();
  for (int flow = 1; flow < 6; ++flow) {
    EXPECT_EQ(cluster.host(3).stack().socket(flow).app_core(), rx_core);
  }
}

TEST(ClusterTest, OneToOneSpreadsReceiverCores) {
  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 3;

  Cluster cluster(config);
  Workload workload = build_workload(cluster, config.traffic);
  ASSERT_EQ(cluster.flows_created(), 3);
  for (int flow = 0; flow < 3; ++flow) {
    EXPECT_EQ(cluster.flow_route(flow).src_host, flow);
    EXPECT_EQ(cluster.host(3).stack().socket(flow).app_core(), flow);
  }
}

// §3.5: when the steering table cannot hold explicit per-flow entries
// (all-to-all) and aRFS is off, the NIC falls back to hashing the flow
// id over its queues.  The fallback must be deterministic and must not
// depend on endpoint placement.
TEST(ClusterTest, HashSteeringFallbackWhenExplicitMappingIsOff) {
  ExperimentConfig config;
  config.topology.num_hosts = 3;
  config.topology.use_switch = true;
  config.stack.arfs = false;
  config.stack.fallback_steering = SteeringMode::rss;

  Cluster first(config);
  Cluster second(config);
  for (int flow = 0; flow < 4; ++flow) {
    const Cluster::FlowEndpoint src{flow % 2, 0};
    first.make_flow(src, {2, flow}, /*explicit_irq_mapping=*/false);
    second.make_flow(src, {2, flow}, /*explicit_irq_mapping=*/false);
  }
  for (int flow = 0; flow < 4; ++flow) {
    const int queue = first.host(2).nic().queue_for_flow(flow);
    EXPECT_GE(queue, 0);
    EXPECT_LT(queue, first.config().topo.num_cores());
    // Deterministic: a pure function of the flow id.
    EXPECT_EQ(queue, second.host(2).nic().queue_for_flow(flow));
    // Identical on every NIC — the hash ignores host placement.
    EXPECT_EQ(queue, first.host(0).nic().queue_for_flow(flow));
  }
}

// With explicit mapping on (the paper's §3.1 methodology) the same
// config steers each flow to a unique NIC-remote core instead.
TEST(ClusterTest, ExplicitRssMappingClaimsUniqueRemoteCores) {
  ExperimentConfig config;
  config.topology.num_hosts = 3;
  config.topology.use_switch = true;
  config.stack.arfs = false;
  config.stack.fallback_steering = SteeringMode::rss;

  Cluster cluster(config);
  cluster.make_flow({0, 0}, {2, 0});
  cluster.make_flow({1, 0}, {2, 1});
  const NumaTopology& topo = cluster.config().topo;
  EXPECT_EQ(cluster.host(2).nic().queue_for_flow(0), topo.remote_core(0));
  EXPECT_EQ(cluster.host(2).nic().queue_for_flow(1), topo.remote_core(1));
}

// A flap plan targeting one uplink only perturbs the flows crossing
// that link.  The window-limited sender goes silent within one RTT of
// the flap opening (its ACK stream is severed), so the physical losses
// are host 0's ACKs dying on the switch egress toward the downed port
// — visible in that port's flap counter and in the injector rollup —
// while every other port, and every other flow, is untouched.
TEST(ClusterTest, SingleLinkFlapPerturbsOnlyThatLinksFlows) {
  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 3;
  config.faults.link_flaps.push_back(
      {5 * kMillisecond, 2 * kMillisecond, /*link=*/0});

  Cluster cluster(config);
  Workload workload = build_workload(cluster, config.traffic);
  workload.start();
  cluster.run_until(20 * kMillisecond);

  ASSERT_NE(cluster.faults(), nullptr);
  EXPECT_EQ(cluster.faults()->counters().flaps, 1u);
  EXPECT_GT(cluster.faults()->counters().flap_drops, 0u);
  ASSERT_NE(cluster.fabric(), nullptr);
  EXPECT_GT(cluster.fabric()->port_stats(0).flap_drops, 0u);
  for (int port = 1; port < 4; ++port) {
    EXPECT_EQ(cluster.fabric()->port_stats(port).flap_drops, 0u)
        << "port " << port;
  }
  // No data frame was lost anywhere — the outage only killed ACKs —
  // so no sender enters loss recovery.
  for (int host = 0; host < 3; ++host) {
    EXPECT_EQ(cluster.host(host).stack().stats().retransmits, 0u)
        << "host " << host;
  }
  // The unaffected senders keep streaming through the 2ms stall: both
  // deliver more than the flapped flow over the same window.
  const Bytes flapped =
      cluster.host(3).stack().socket(0).delivered_to_app();
  for (int flow = 1; flow < 3; ++flow) {
    EXPECT_GT(cluster.host(3).stack().socket(flow).delivered_to_app(),
              flapped);
  }
}

// A window aimed at a link the cluster does not have fails the build at
// every shard count, rather than running as a flap that each shard
// counts for itself.
TEST(ClusterDeathTest, FaultWindowOutsideTheClusterIsRejected) {
  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.faults.link_flaps.push_back(
      {5 * kMillisecond, 2 * kMillisecond, /*link=*/4});
  for (const int shards : {1, 2}) {
    config.shards = shards;
    EXPECT_DEATH(Cluster cluster(config), "outside the cluster");
  }
}

// The cluster experiment path reports per-host and fabric rollups; the
// legacy 2-host path must omit them entirely (their presence would
// change historical metrics JSON byte-for-byte).
TEST(ClusterTest, PerHostAndFabricMetricsOnlyInClusterMode) {
  ExperimentConfig legacy;
  legacy.warmup = 1 * kMillisecond;
  legacy.duration = 2 * kMillisecond;
  const Metrics two_host = run_experiment(legacy);
  EXPECT_TRUE(two_host.per_host.empty());
  EXPECT_FALSE(two_host.has_fabric);

  ExperimentConfig clustered = legacy;
  clustered.topology.num_hosts = 4;
  clustered.topology.use_switch = true;
  clustered.traffic.pattern = Pattern::incast;
  clustered.traffic.flows = 3;
  const Metrics cluster = run_experiment(clustered);
  EXPECT_EQ(cluster.per_host.size(), 4u);
  EXPECT_TRUE(cluster.has_fabric);
  EXPECT_GT(cluster.fabric.forwarded, 0u);

  // And the cluster metrics JSON round-trips through the parser.
  const std::string json = metrics_to_json(cluster);
  const std::optional<Metrics> parsed = metrics_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->per_host.size(), cluster.per_host.size());
  EXPECT_TRUE(parsed->has_fabric);
  EXPECT_EQ(parsed->fabric.forwarded, cluster.fabric.forwarded);
  EXPECT_EQ(metrics_to_json(*parsed), json);
}

}  // namespace
}  // namespace hostsim
