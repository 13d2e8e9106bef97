// Shard-aware observability: attaching obs must no longer force a
// cluster run serial, and every obs artifact — Perfetto trace JSON,
// time-series CSV, continuous-latency CSV, request-span JSONL — must be
// byte-identical at --shards 1, 2, and 4.  Divergence would mean a
// sampler tick raced the datapath, a registry column moved with the
// partition, or a request span joined differently under the sharded
// schedule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "core/testbed.h"
#include "temp_dir.h"

namespace hostsim {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// File name -> contents for every regular file under `dir`.
std::map<std::string, std::string> dir_contents(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out[fs::relative(entry.path(), dir).string()] = slurp(entry.path());
  }
  return out;
}

/// The shard-smoke incast (tests/core/shard_pinning_test.cpp) with the
/// full obs stack attached: pipeline spans, sampler, latency monitor.
ExperimentConfig obs_incast_config() {
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
  config.obs.span_rate = 1.0;
  config.obs.sample_period = 100 * kMicrosecond;
  return config;
}

/// An RPC incast with request tracing on: clients on hosts 0..3, server
/// on host 4, every request sampled into a distributed trace.
ExperimentConfig traced_rpc_config() {
  ExperimentConfig config;
  config.topology.num_hosts = 5;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 256 * kKiB;
  config.topology.switch_ecn_bytes = 64 * kKiB;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 4;
  config.traffic.rpc_size = 16 * kKiB;
  config.warmup = 1 * kMillisecond;
  config.duration = 3 * kMillisecond;
  config.obs.span_rate = 1.0;
  config.obs.sample_period = 100 * kMicrosecond;
  config.obs.trace_rate = 1.0;
  return config;
}

std::map<std::string, std::string> run_to_dir(ExperimentConfig config,
                                              int shards,
                                              const std::string& tag,
                                              std::string* metrics_json) {
  const fs::path dir = test_temp_dir("hostsim-obs-shard-" + tag);
  fs::remove_all(dir);
  config.shards = shards;
  config.obs.out_dir = dir.string();
  const Metrics metrics = run_experiment(config);
  if (metrics_json != nullptr) *metrics_json = metrics_to_json(metrics);
  auto files = dir_contents(dir);
  fs::remove_all(dir);
  return files;
}

// Attaching the full obs stack no longer drops a cluster run to one
// shard (the PR-9 engine refused obs; the per-host/per-shard partition
// makes it safe).
TEST(ObsShardTest, ObsEnabledClusterRunStillShards) {
  ExperimentConfig config = obs_incast_config();
  config.shards = 4;
  Testbed testbed(config);
  EXPECT_EQ(testbed.num_shards(), 4);
  EXPECT_NE(testbed.observer(), nullptr);
}

TEST(ObsShardTest, IncastArtifactsByteIdenticalAcrossShardCounts) {
  std::string serial_json;
  const auto serial =
      run_to_dir(obs_incast_config(), 1, "incast-1", &serial_json);
  // trace.json + timeseries.csv + latency.csv (monitor defaults on; no
  // request tracing in this config, so no spans.jsonl).
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_TRUE(serial.count("obs.trace.json"));
  EXPECT_TRUE(serial.count("obs.timeseries.csv"));
  EXPECT_TRUE(serial.count("obs.latency.csv"));
  for (int shards : {2, 4}) {
    std::string sharded_json;
    const auto sharded =
        run_to_dir(obs_incast_config(), shards,
                   "incast-" + std::to_string(shards), &sharded_json);
    EXPECT_EQ(serial, sharded) << "artifacts diverged at " << shards
                               << " shards";
    EXPECT_EQ(serial_json, sharded_json)
        << "metrics diverged at " << shards << " shards";
  }
}

TEST(ObsShardTest, TracedRpcArtifactsByteIdenticalAcrossShardCounts) {
  std::string serial_json;
  const auto serial =
      run_to_dir(traced_rpc_config(), 1, "rpc-1", &serial_json);
  ASSERT_EQ(serial.size(), 4u);  // + spans.jsonl with tracing on
  ASSERT_TRUE(serial.count("obs.spans.jsonl"));
  EXPECT_FALSE(serial.at("obs.spans.jsonl").empty())
      << "tracing produced no joined request spans";
  for (int shards : {2, 4}) {
    std::string sharded_json;
    const auto sharded = run_to_dir(traced_rpc_config(), shards,
                                    "rpc-" + std::to_string(shards),
                                    &sharded_json);
    EXPECT_EQ(serial, sharded) << "artifacts diverged at " << shards
                               << " shards";
    EXPECT_EQ(serial_json, sharded_json)
        << "metrics diverged at " << shards << " shards";
  }
}

}  // namespace
}  // namespace hostsim
