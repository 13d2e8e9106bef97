// Sharded-execution pinning: `shards` is an execution strategy, not an
// experiment parameter, so a sharded run must reproduce the serial
// artifacts *bit for bit* — metrics JSON, flight-recorder trace, fault
// counters — and must never perturb a cache key.  These tests hold that
// contract on the shapes where divergence would hide:
//  * a 9-host incast through a buffered ECN-marking switch (drop-tail
//    drops + CE marks concentrate on one egress port),
//  * overlapping global-flap + host-crash windows across 3 shards
//    (fault state spans shard boundaries),
//  * freshly built clusters over seeded shapes (what construction leaves
//    in every allocator, ring, core account and loop),
//  * a --jobs=8 sweep over sharded points (cache keys and artifacts
//    independent of both parallelism knobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/serialize.h"
#include "core/testbed.h"
#include "sim/rng.h"
#include "sweep/campaign.h"
#include "sweep/runner.h"

namespace hostsim {
namespace {

/// The artifacts a run leaves behind, rendered to bytes exactly as the
/// CLI / sweep layers would emit them.
struct Artifacts {
  std::string metrics_json;
  std::string trace_csv;
  FaultCounters faults;
};

std::string trace_to_csv(const std::vector<TraceRecord>& trace) {
  std::ostringstream out;
  out << "time_ns,kind,host,flow,a,b\n";
  for (const TraceRecord& record : trace) {
    out << record.at << ',' << to_string(record.kind) << ',' << record.host
        << ',' << record.flow << ',' << record.a << ',' << record.b << '\n';
  }
  return out.str();
}

Artifacts run_with_shards(ExperimentConfig config, int shards) {
  config.shards = shards;
  const Metrics metrics = run_experiment(config);
  return Artifacts{metrics_to_json(metrics), trace_to_csv(metrics.trace),
                   metrics.faults};
}

void expect_identical(const Artifacts& serial, const Artifacts& sharded,
                      int shards) {
  EXPECT_EQ(serial.metrics_json, sharded.metrics_json)
      << "metrics diverged at " << shards << " shards";
  EXPECT_EQ(serial.trace_csv, sharded.trace_csv)
      << "trace diverged at " << shards << " shards";
  EXPECT_EQ(serial.faults.flaps, sharded.faults.flaps);
  EXPECT_EQ(serial.faults.flap_drops, sharded.faults.flap_drops);
  EXPECT_EQ(serial.faults.host_crashes, sharded.faults.host_crashes);
  EXPECT_EQ(serial.faults.crash_drops, sharded.faults.crash_drops);
  EXPECT_EQ(serial.faults.watchdog_trips, sharded.faults.watchdog_trips);
}

/// The cluster_incast-style point CI's shard-smoke job runs: cross-host
/// fan-in through a small buffered switch with DCTCP, trace enabled so
/// the keep-newest ring contents are part of the contract.
ExperimentConfig incast_config() {
  ExperimentConfig config;
  config.topology.num_hosts = 9;
  config.topology.switch_buffer = 256 * 1024;
  config.topology.switch_ecn_bytes = 64 * 1024;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.stack.cc = CcAlgo::dctcp;
  config.obs.trace_capacity = 300;
  config.warmup = 1 * kMillisecond;
  config.duration = 3 * kMillisecond;
  return config;
}

TEST(ShardPinning, ShardsNeverEnterConfigHashOrJson) {
  ExperimentConfig serial = incast_config();
  ExperimentConfig sharded = incast_config();
  sharded.shards = 4;
  EXPECT_EQ(config_hash(serial), config_hash(sharded));
  EXPECT_EQ(config_to_json(serial), config_to_json(sharded));
}

TEST(ShardPinning, IncastArtifactsBitIdenticalAcrossShardCounts) {
  const Artifacts serial = run_with_shards(incast_config(), 1);
  // The switch had to actually queue and mark for this to mean much.
  EXPECT_NE(serial.metrics_json.find("\"fabric\""), std::string::npos);
  EXPECT_FALSE(serial.trace_csv.empty());
  for (int shards : {2, 4}) {
    expect_identical(serial, run_with_shards(incast_config(), shards), shards);
  }
}

// Overlapping fault windows spanning shard boundaries: a global link
// flap (every uplink, including links owned by other shards) overlapping
// a host crash, with the flight recorder running.  Every shard's
// injector must open/close the same windows at the same instants, and
// the merged counters must match the single serial injector's.
TEST(ShardPinning, OverlappingFaultWindowsThreeShardsBitIdentical) {
  ExperimentConfig config;
  config.topology.num_hosts = 6;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 4;
  config.obs.trace_capacity = 200;
  config.warmup = 1 * kMillisecond;
  config.duration = 3 * kMillisecond;
  // Global flap [1.5ms, 1.8ms) on every link; host 2 crashes at 1.6ms
  // for 0.5ms — the windows overlap in [1.6ms, 1.8ms).
  config.faults.link_flaps.push_back(
      LinkFlap{1'500 * kMicrosecond, 300 * kMicrosecond, /*link=*/-1});
  config.faults.host_crashes.push_back(
      HostCrash{1'600 * kMicrosecond, 500 * kMicrosecond, /*host=*/2});

  const Artifacts serial = run_with_shards(config, 1);
  EXPECT_GE(serial.faults.flaps, 1u);
  EXPECT_EQ(serial.faults.host_crashes, 1u);
  const Artifacts sharded = run_with_shards(config, 3);
  expect_identical(serial, sharded, 3);
}

/// What a freshly built cluster holds, flattened host by host: each
/// allocator's page counters and pageset hits/misses, each queue's posted
/// descriptors, each core's cycles by category and tasks run, the held
/// page ids in collection order, and the pending events.
struct BuildSnapshot {
  std::vector<std::int64_t> counters;
  std::vector<PageId> held;
  std::size_t events_pending = 0;
};

BuildSnapshot snapshot_build(Cluster& cluster) {
  BuildSnapshot snap;
  std::vector<std::int64_t>& c = snap.counters;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    Host& host = cluster.host(h);
    const PageAllocator& allocator = host.allocator();
    c.push_back(static_cast<std::int64_t>(allocator.pages_created()));
    c.push_back(allocator.live_pages());
    c.push_back(static_cast<std::int64_t>(allocator.pageset_stats().hits()));
    c.push_back(static_cast<std::int64_t>(allocator.pageset_stats().misses()));
    for (int q = 0; q < host.num_cores(); ++q) {
      c.push_back(host.nic().posted_descriptors(q));
    }
    for (int i = 0; i < host.num_cores(); ++i) {
      const Core& core = host.core(i);
      for (std::size_t k = 0; k < kNumCpuCategories; ++k) {
        c.push_back(core.account().get(static_cast<CpuCategory>(k)));
      }
      c.push_back(static_cast<std::int64_t>(core.tasks_run()));
    }
    std::vector<const Page*> held;
    host.nic().collect_held_pages(held);
    host.stack().collect_held_pages(held);
    for (const Page* page : held) snap.held.push_back(page->id);
  }
  snap.events_pending = cluster.events_pending();
  return snap;
}

/// Index of the first element where `a` and `b` differ (their common
/// length when one is a prefix of the other), or -1 when they are equal.
template <class T>
long first_difference(const std::vector<T>& a, const std::vector<T>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(common);
}

// Building a cluster at any shard count leaves every host exactly as the
// one-shard build does: the NIC's t=0 ring fill charges the same cycles
// and posts the same pages in the same order, and each loop holds the
// same events.  A 1 ms incast on the same shape then yields the same
// metrics.  Shapes are drawn from a fixed seed over host count, ring
// size, MTU, transport and IOMMU.
TEST(ShardPinning, ConstructionMatchesSerialBuild) {
  constexpr int kHostChoices[] = {3, 9, 17, 33};
  constexpr int kRingChoices[] = {64, 256, 1024};
  Rng rng(3);
  std::set<int> rings;
  std::set<bool> jumbos;
  std::set<bool> homas;
  std::set<bool> iommus;
  for (int shape = 0; shape < 8; ++shape) {
    ExperimentConfig config;
    config.topology.num_hosts = kHostChoices[shape % 4];
    config.topology.use_switch = true;
    config.stack.nic_ring_size = kRingChoices[rng.next_below(3)];
    config.stack.jumbo = rng.chance(0.5);
    const bool homa = rng.chance(0.5);
    config.stack.transport.kind = homa ? TransportKind::homa
                                       : TransportKind::tcp;
    config.stack.iommu = rng.chance(0.5);
    config.traffic.pattern = Pattern::incast;
    config.traffic.flows = config.topology.num_hosts - 1;
    config.warmup = 0;
    config.duration = 1 * kMillisecond;
    rings.insert(config.stack.nic_ring_size);
    jumbos.insert(config.stack.jumbo);
    homas.insert(homa);
    iommus.insert(config.stack.iommu);
    SCOPED_TRACE("shape " + std::to_string(shape) + ": " +
                 std::to_string(config.topology.num_hosts) + " hosts, ring " +
                 std::to_string(config.stack.nic_ring_size) +
                 (config.stack.jumbo ? ", jumbo" : ", 1500B") +
                 (homa ? ", homa" : ", tcp") +
                 (config.stack.iommu ? ", iommu" : ""));

    config.shards = 1;
    BuildSnapshot serial;
    {
      Testbed testbed(config);
      serial = snapshot_build(testbed);
    }
    ASSERT_GT(serial.held.size(), 0u);
    const std::string serial_json = metrics_to_json(run_experiment(config));
    for (int shards = 2; shards <= 4; ++shards) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      config.shards = shards;
      BuildSnapshot sharded;
      {
        Testbed testbed(config);
        sharded = snapshot_build(testbed);
      }
      EXPECT_EQ(first_difference(serial.counters, sharded.counters), -1);
      EXPECT_EQ(first_difference(serial.held, sharded.held), -1);
      EXPECT_EQ(serial.events_pending, sharded.events_pending);
      EXPECT_EQ(serial_json, metrics_to_json(run_experiment(config)));
    }
  }
  // The seed covers every ring size and both settings of each flag.
  EXPECT_EQ(rings.size(), 3u);
  EXPECT_EQ(jumbos.size(), 2u);
  EXPECT_EQ(homas.size(), 2u);
  EXPECT_EQ(iommus.size(), 2u);
}

// A parallel sweep over sharded points: neither --jobs nor --shards may
// move a cache key or an artifact byte.  (Points differ only in flow
// count, so this also re-pins sharded vs serial on a second topology.)
TEST(ShardPinning, ParallelShardedSweepIsCacheKeyStable) {
  sweep::Campaign campaign;
  campaign.name = "shard_pinning";
  campaign.base = incast_config();
  campaign.base.obs.trace_capacity = 0;  // trace stays out of sweeps
  campaign.base.duration = 2 * kMillisecond;
  campaign.axes.push_back(sweep::Axis::flows({4, 8}));

  sweep::RunnerOptions serial_options;
  serial_options.jobs = 1;
  serial_options.shards = 1;
  serial_options.use_cache = false;
  const sweep::CampaignResult serial =
      sweep::run_campaign(campaign, serial_options);

  sweep::RunnerOptions sharded_options;
  sharded_options.jobs = 8;
  sharded_options.shards = 2;
  sharded_options.use_cache = false;
  const sweep::CampaignResult sharded =
      sweep::run_campaign(campaign, sharded_options);

  ASSERT_EQ(serial.points.size(), 2u);
  ASSERT_EQ(sharded.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].config_hash, sharded.points[i].config_hash);
    EXPECT_EQ(metrics_to_json(serial.points[i].metrics),
              metrics_to_json(sharded.points[i].metrics));
  }
}

}  // namespace
}  // namespace hostsim
