// Legacy pinning for the transport seam: introducing net::Transport and
// TransportConfig must not move a single bit of any default-transport
// artifact.  Pins:
//  * the default ExperimentConfig hash and fig03e / fig05 campaign point
//    hashes under config schema 3 (cache keys: a shift here silently
//    invalidates .hostsim-cache and every saved baseline),
//  * full metrics-JSON fingerprints of short deterministic runs, which
//    pin the simulation itself: single-flow and 8:1 incast (captured on
//    the pre-seam tree), plus a Homa 8:1 incast and a zero-copy,
//    remote-NUMA, aRFS-off one-to-one (captured before TCP and Homa
//    moved onto the shared socket core) that reach the core's
//    message-copy, pin/remap and contended-lock paths,
//  * traced RPC runs (ping-pong incast under both transports, the
//    fig. 11 mixed pattern, and a resilient incast through a host
//    crash), each pinned by its metrics JSON and by its request-class
//    rollup, which carries the client class names and span latencies,
//  * a buffered 5-host incast whose 2000 Gbps ports serialize a 66-byte
//    ACK in 0 ns, so the switch queues that hop for the current
//    instant (a same-instant EventFifo push), under both transports.
//  * one-to-one runs under each rx descriptor shape the other pins miss
//    (1566-byte descriptors, LRO merging descriptors' fragments, DCA off,
//    a 64-entry ring, a page-pool pressure window), captured before
//    posted descriptors were stored as page-id records.
//  * the request-trace artifacts of three traced runs on a 9-host
//    switch (an open-loop fan-out with churn, and the resilient crash
//    run under both transports): the span log, the Perfetto trace, the
//    latency windows and the class rollup with its slowest hop, which
//    only the hop join feeds.  Captured before request spans carried
//    their class as an enum and the harvest merged hops with a heap.
//  * TCP's receiver-driven incast, Homa RPCs larger than one grant, and
//    a Homa flow that times out behind a link flap, which reach the
//    grant limits of both transports and Homa's restart budget.
//    Captured while those limits were config fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sweep/campaigns.h"
#include "temp_dir.h"

namespace hostsim {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TransportPinning, DefaultConfigHashUnchanged) {
  ExperimentConfig config;
  EXPECT_EQ(hash_hex(config_hash(config)), "0xd31002b3258c3eff");
  // A non-default transport must hash differently (the transport block
  // is part of the key).
  config.stack.transport.kind = TransportKind::homa;
  EXPECT_NE(hash_hex(config_hash(config)), "0xd31002b3258c3eff");
}

TEST(TransportPinning, Fig03eCampaignPointHashes) {
  auto campaign = sweep::find_campaign("fig03e_cache_miss");
  ASSERT_TRUE(campaign.has_value());
  const auto points = campaign->expand();
  ASSERT_EQ(points.size(), 28u);
  // Pin the corners and the legacy default point (ring=1024 autotune,
  // which coincides with the default config hash).
  EXPECT_EQ(hash_hex(config_hash(points.front().config)),
            "0x3747945b76badc49");
  EXPECT_EQ(hash_hex(config_hash(points[15].config)),
            "0xd31002b3258c3eff");
  EXPECT_EQ(hash_hex(config_hash(points.back().config)),
            "0x5b0e480b5f2cb3f0");
}

TEST(TransportPinning, Fig05CampaignPointHashes) {
  auto campaign = sweep::find_campaign("fig05_one_to_one");
  ASSERT_TRUE(campaign.has_value());
  const auto points = campaign->expand();
  ASSERT_EQ(points.size(), 4u);
  const char* expected[] = {"0x460a95df0cca38e5", "0xaa4e207495043634",
                            "0x40ee5fbc7250263b", "0x14dd23c1b7472558"};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(hash_hex(config_hash(points[i].config)), expected[i])
        << points[i].label();
  }
}

TEST(TransportPinning, SingleFlowShortRunBitIdentical) {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 44.240383999999999);
  EXPECT_EQ(metrics.app_bytes, 16590144);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x3d2080b19ba7ba26ull);
}

TEST(TransportPinning, Incast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 25.246976);
  EXPECT_EQ(metrics.app_bytes, 9467616);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xcd8035ea951d07bdull);
}

// The shared socket core under the Homa transport: message-granular
// user copies, completed-message receive queue, grant-side locking.
TEST(TransportPinning, HomaIncast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.stack.transport.kind = TransportKind::homa;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 31.710805333333333);
  EXPECT_EQ(metrics.app_bytes, 11891552);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xefe68f878777beb6ull);
}

// The shared socket core's side branches: MSG_ZEROCOPY pinning, rx
// page remapping, receivers on the NIC-remote node (flows 6 and 7), and
// the cross-core socket lock with aRFS off.
TEST(TransportPinning, ZeroCopyRemoteNumaShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 8;
  config.traffic.receiver_app_remote_numa = true;
  config.stack.tx_zerocopy = true;
  config.stack.rx_zerocopy = true;
  config.stack.arfs = false;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 99.017877333333331);
  EXPECT_EQ(metrics.app_bytes, 37131704);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x509cd80b974fc97full);
}

// 4:1 incast through a buffered switch whose 2000 Gbps egress ports
// serialize a header-only frame in 0 ns: every ACK's serialize stage is
// due at the instant it is enqueued.  Captured before the switch's
// in-flight frames moved from per-frame events into per-hop FIFOs.
ExperimentConfig same_instant_switch_config(TransportKind transport) {
  ExperimentConfig config;
  config.stack.transport.kind = transport;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 4;
  config.topology.num_hosts = 5;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 256 * kKiB;
  config.topology.port_gbps = 2000;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  return config;
}

TEST(TransportPinning, SameInstantSwitchIncast5ShortRunBitIdentical) {
  const Metrics metrics =
      run_experiment(same_instant_switch_config(TransportKind::tcp));
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 28.053504);
  EXPECT_EQ(metrics.app_bytes, 10520064);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x1d7bad012d5dc42cull);
}

TEST(TransportPinning, HomaSameInstantSwitchIncast5ShortRunBitIdentical) {
  const Metrics metrics =
      run_experiment(same_instant_switch_config(TransportKind::homa));
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 34.819007999999997);
  EXPECT_EQ(metrics.app_bytes, 13057128);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xf717a12ff5c6b50full);
}

/// Fingerprint of the per-class request rollup (never serialized).
std::uint64_t classes_fingerprint(const Metrics& metrics) {
  std::string text;
  for (const obs::RequestClassSummary& cls : metrics.obs_classes) {
    text += cls.cls + "," + std::to_string(cls.requests) + "," +
            std::to_string(cls.p50) + "," + std::to_string(cls.p99) + "," +
            std::to_string(cls.retries) + ";";
  }
  return fnv1a(text);
}

ExperimentConfig traced_rpc_config(TransportKind transport) {
  ExperimentConfig config;
  config.stack.transport.kind = transport;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 16;
  config.traffic.rpc_size = 16 * kKiB;
  config.obs.trace_rate = 0.3;
  config.warmup = 2 * kMillisecond;
  config.duration = 6 * kMillisecond;
  return config;
}

TEST(TransportPinning, RpcIncast16ShortRunBitIdentical) {
  const Metrics metrics = run_experiment(traced_rpc_config(TransportKind::tcp));
  ASSERT_EQ(metrics.obs_classes.size(), 1u);
  EXPECT_EQ(metrics.obs_classes[0].cls, "rpc");
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x674c4060967ee3ceull);
  EXPECT_EQ(classes_fingerprint(metrics), 0x78b536d19a3766f5ull);
}

TEST(TransportPinning, HomaRpcIncast16ShortRunBitIdentical) {
  const Metrics metrics =
      run_experiment(traced_rpc_config(TransportKind::homa));
  ASSERT_EQ(metrics.obs_classes.size(), 1u);
  EXPECT_EQ(metrics.obs_classes[0].cls, "rpc");
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xdba5871e395ebe70ull);
  EXPECT_EQ(classes_fingerprint(metrics), 0xc0e9bbabd7453cf2ull);
}

// One long flow sharing its cores with 8 ping-pong RPC flows (fig. 11).
TEST(TransportPinning, Mixed8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::mixed;
  config.traffic.flows = 8;
  config.obs.trace_rate = 0.5;
  config.warmup = 2 * kMillisecond;
  config.duration = 6 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  ASSERT_EQ(metrics.obs_classes.size(), 1u);
  EXPECT_EQ(metrics.obs_classes[0].cls, "rpc");
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xf94f9dd74ce33a53ull);
  EXPECT_EQ(classes_fingerprint(metrics), 0xcfc4cd1ff01bb19aull);
}

// Deadline/retry clients riding out a receiver crash on a 9-host switch:
// retries, reconnects and server rebinds all happen inside the window.
TEST(TransportPinning, ResilientCrashRpcShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 8;
  config.topology.num_hosts = 9;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 512 * kKiB;
  config.faults.host_crashes.push_back(
      {3 * kMillisecond, kMillisecond / 2, 8});
  config.traffic.resilience.enabled = true;
  config.traffic.resilience.max_retries = 3;
  config.obs.trace_rate = 0.5;
  config.warmup = 2 * kMillisecond;
  config.duration = 6 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_GT(metrics.recovery.rpc_retries, 0u);
  ASSERT_EQ(metrics.obs_classes.size(), 1u);
  EXPECT_EQ(metrics.obs_classes[0].cls, "rpc_resilient");
  EXPECT_GT(metrics.obs_classes[0].retries, 0u);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x810fe09576db2236ull);
  EXPECT_EQ(classes_fingerprint(metrics), 0x52c7ca43c858c9a8ull);
}

// Eight one-to-one flows, 2 ms warm-up and 3 ms measured, under one rx
// descriptor shape: how many pages a descriptor spans, whose fragments
// LRO merges, how the DMA lands and how soon pages recycle.
Metrics run_descriptor_shape(void (*shape)(ExperimentConfig&)) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  shape(config);
  return run_experiment(config);
}

// 1566-byte descriptors over one or two pages.
TEST(TransportPinning, MtuDescriptorShortRunBitIdentical) {
  const Metrics metrics = run_descriptor_shape(
      [](ExperimentConfig& config) { config.stack.jumbo = false; });
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x0b1870a017202940ull);
}

// LRO appends the fragments of several descriptors onto one.
TEST(TransportPinning, LroDescriptorShortRunBitIdentical) {
  const Metrics metrics = run_descriptor_shape([](ExperimentConfig& config) {
    config.stack.lro = true;
    config.stack.gro = false;
  });
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xac8a6b327166f883ull);
}

// DMA to DRAM: every descriptor page is invalidated in the LLC.
TEST(TransportPinning, NoDcaDescriptorShortRunBitIdentical) {
  const Metrics metrics = run_descriptor_shape(
      [](ExperimentConfig& config) { config.stack.dca = false; });
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x90bb60976b2d9509ull);
}

// A 64-entry ring: pages recycle while still LLC-resident.
TEST(TransportPinning, SmallRingDescriptorShortRunBitIdentical) {
  const Metrics metrics = run_descriptor_shape(
      [](ExperimentConfig& config) { config.stack.nic_ring_size = 64; });
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xd035ef793cd8b7a1ull);
}

// Half of the page allocations in [2 ms, 3 ms) are denied: spans fail
// mid-carve and roll back, and rings run short.
TEST(TransportPinning, PoolPressureDescriptorShortRunBitIdentical) {
  const Metrics metrics = run_descriptor_shape([](ExperimentConfig& config) {
    config.faults.pool_pressure.push_back(
        {2 * kMillisecond, kMillisecond, 0.5});
  });
  EXPECT_GT(metrics.faults.pool_denials, 0u);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xeb65ae8133aad905ull);
}

// TCP's receiver-driven mode: eight flows share one receiver core, so
// the grant scheduler's active cap, quantum and blind first window all
// shape the run.
TEST(TransportPinning, ReceiverDrivenIncast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.stack.receiver_driven = true;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x21f20f348b3be406ull);
}

// 1 MiB Homa RPCs, eight clients on one server core: each message needs
// grants beyond its blind window, so the grant quantum and the per-core
// active-message cap shape the run.
TEST(TransportPinning, HomaLargeRpcIncast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.stack.transport.kind = TransportKind::homa;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 8;
  config.traffic.rpc_size = kMiB;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_GT(metrics.rpc_transactions, 0u);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xc71042989e7691e7ull);
}

// A Homa flow whose link goes dark for longer than the run: the sender
// restarts its unscheduled window every two resend intervals until its
// restart budget runs out and the socket dies with ETIMEDOUT (about
// 20.5 ms into the 25 ms run).
TEST(TransportPinning, HomaLinkFlapTimeoutBitIdentical) {
  ExperimentConfig config;
  config.stack.transport.kind = TransportKind::homa;
  config.faults.link_flaps.push_back({2 * kMillisecond, 40 * kMillisecond, 0});
  config.warmup = 1 * kMillisecond;
  config.duration = 24 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_GT(metrics.retransmits, 0u);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x89a39cde30389c9bull);
}

/// Hashes of one traced run's obs artifacts and class rollup.
struct TraceArtifacts {
  std::uint64_t spans = 0;    ///< obs.spans.jsonl
  std::uint64_t trace = 0;    ///< obs.trace.json
  std::uint64_t latency = 0;  ///< obs.latency.csv
  std::uint64_t classes = 0;  ///< rollup, slowest hop included
  Nanos slowest_hop = 0;      ///< worst over the classes
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TraceArtifacts run_traced(ExperimentConfig config, const std::string& name) {
  const std::filesystem::path dir = test_temp_dir(name);
  std::filesystem::remove_all(dir);
  config.obs.out_dir = dir.string();
  const Metrics metrics = run_experiment(config);
  TraceArtifacts out;
  out.spans = fnv1a(slurp(dir / "obs.spans.jsonl"));
  out.trace = fnv1a(slurp(dir / "obs.trace.json"));
  out.latency = fnv1a(slurp(dir / "obs.latency.csv"));
  std::filesystem::remove_all(dir);
  std::string text;
  for (const obs::RequestClassSummary& cls : metrics.obs_classes) {
    text += cls.cls + "," + std::to_string(cls.requests) + "," +
            std::to_string(cls.p50) + "," + std::to_string(cls.p99) + "," +
            std::to_string(cls.retries) + "," +
            std::to_string(cls.slowest_hop) + ";";
    out.slowest_hop = std::max(out.slowest_hop, cls.slowest_hop);
  }
  out.classes = fnv1a(text);
  return out;
}

// Open-loop fan-out through a buffered 9-host switch: pareto sizes,
// three leaves per request and connection churn, so attempts open and
// close on many flows and hops queue behind each other.
TEST(TransportPinning, OpenLoopTraceArtifactsBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::open_loop;
  config.traffic.flows = 8;
  config.traffic.workload.enabled = true;
  config.traffic.workload.rate_rps = 100'000;
  config.traffic.workload.sizes = SizeDist::bounded_pareto;
  config.traffic.workload.fan_out = 3;
  config.traffic.workload.churn_prob = 0.05;
  config.topology.num_hosts = 9;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 256 * kKiB;
  config.obs.trace_rate = 0.2;
  config.warmup = 1 * kMillisecond;
  config.duration = 4 * kMillisecond;
  const TraceArtifacts got = run_traced(config, "hostsim-pin-open-loop");
  EXPECT_GT(got.slowest_hop, 0);
  EXPECT_EQ(got.spans, 0x627b1d8963164ee8ull);
  EXPECT_EQ(got.trace, 0x1ce82334133dfa54ull);
  EXPECT_EQ(got.latency, 0x4626cf1855e7ddd9ull);
  EXPECT_EQ(got.classes, 0xa34aebad10c94f4full);
}

// ResilientCrashRpcShortRunBitIdentical's run, exporting its obs
// artifacts.
ExperimentConfig resilient_crash_config(TransportKind transport) {
  ExperimentConfig config;
  config.stack.transport.kind = transport;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 8;
  config.topology.num_hosts = 9;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 512 * kKiB;
  config.faults.host_crashes.push_back(
      {3 * kMillisecond, kMillisecond / 2, 8});
  config.traffic.resilience.enabled = true;
  config.traffic.resilience.max_retries = 3;
  config.obs.trace_rate = 0.5;
  config.warmup = 2 * kMillisecond;
  config.duration = 6 * kMillisecond;
  return config;
}

TEST(TransportPinning, ResilientCrashRpcTraceArtifactsBitIdentical) {
  const TraceArtifacts got = run_traced(
      resilient_crash_config(TransportKind::tcp), "hostsim-pin-crash-tcp");
  EXPECT_GT(got.slowest_hop, 0);
  EXPECT_EQ(got.spans, 0x89e73242115fc3c9ull);
  EXPECT_EQ(got.trace, 0xfb57003b07b5b35aull);
  EXPECT_EQ(got.latency, 0xe83ef9c4458f4f69ull);
  EXPECT_EQ(got.classes, 0xf197c958547858d1ull);
}

TEST(TransportPinning, HomaResilientCrashRpcTraceArtifactsBitIdentical) {
  const TraceArtifacts got = run_traced(
      resilient_crash_config(TransportKind::homa), "hostsim-pin-crash-homa");
  EXPECT_GT(got.slowest_hop, 0);
  EXPECT_EQ(got.spans, 0x3330a81c8085d7b7ull);
  EXPECT_EQ(got.trace, 0x6416e7b7a8fb7273ull);
  EXPECT_EQ(got.latency, 0x9c8bc2744c51aa94ull);
  EXPECT_EQ(got.classes, 0x7b86d152c8fbdaaeull);
}

}  // namespace
}  // namespace hostsim
