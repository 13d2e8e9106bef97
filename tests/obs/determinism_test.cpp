// The observability layer's core contract: obs is a read-only lens.
// Attaching it must not move config hashes, serialized metrics, sweep
// cache keys, or any simulation outcome — and its own artifacts must be
// byte-identical across runs and across --jobs=N schedules.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sweep/runner.h"
#include "temp_dir.h"

namespace hostsim {
namespace {

namespace fs = std::filesystem;

ExperimentConfig quick() {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 4 * kMillisecond;
  return config;
}

ObsConfig full_obs(const std::string& out_dir = "") {
  ObsConfig obs;
  obs.span_rate = 1.0;
  obs.sample_period = 100 * kMicrosecond;
  obs.out_dir = out_dir;
  return obs;
}

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

TEST(ObsDeterminismTest, ObsNeverEntersConfigHashOrJson) {
  ExperimentConfig plain = quick();
  ExperimentConfig instrumented = quick();
  instrumented.obs = full_obs();
  EXPECT_EQ(config_hash(plain), config_hash(instrumented));
  EXPECT_EQ(config_to_json(plain), config_to_json(instrumented));
}

TEST(ObsDeterminismTest, InstrumentedMetricsAreBitIdenticalToPlain) {
  ExperimentConfig plain = quick();
  ExperimentConfig instrumented = quick();
  instrumented.obs = full_obs();

  const Metrics off = run_experiment(plain);
  const Metrics on = run_experiment(instrumented);
  // Full sampling + a 100 us sampler changed nothing observable: the
  // serialized metrics (which exclude obs_stages, like trace) match.
  EXPECT_EQ(metrics_to_json(on), metrics_to_json(off));
  EXPECT_FALSE(on.obs_stages.empty());
  EXPECT_TRUE(off.obs_stages.empty());
}

TEST(ObsDeterminismTest, InstrumentedClusterRunMatchesPlain) {
  ExperimentConfig plain = quick();
  plain.topology.num_hosts = 4;
  plain.topology.use_switch = true;
  plain.traffic.pattern = Pattern::incast;
  plain.traffic.flows = 6;
  ExperimentConfig instrumented = plain;
  instrumented.obs = full_obs();
  EXPECT_EQ(metrics_to_json(run_experiment(instrumented)),
            metrics_to_json(run_experiment(plain)));
}

TEST(ObsDeterminismTest, ArtifactsAreByteIdenticalAcrossRuns) {
  const fs::path a = test_temp_dir("hostsim-obs-det-a");
  const fs::path b = test_temp_dir("hostsim-obs-det-b");
  fs::remove_all(a);
  fs::remove_all(b);

  ExperimentConfig config = quick();
  config.obs = full_obs(a.string());
  config.obs.trace_capacity = 512;
  run_experiment(config);
  config.obs.out_dir = b.string();
  run_experiment(config);

  const auto first = dir_contents(a);
  const auto second = dir_contents(b);
  // trace.json + timeseries.csv + latency.csv (monitor is on by default
  // whenever obs is attached).
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second);

  fs::remove_all(a);
  fs::remove_all(b);
}

// Satellite (d): the sweep runner applies obs to simulated points only,
// names artifacts by config hash, and a --jobs=8 schedule produces the
// same bytes as a serial one.  Cache keys are untouched by obs.
TEST(ObsSweepTest, ParallelSweepArtifactsMatchSerialByteForByte) {
  sweep::Campaign campaign;
  campaign.name = "obs_runner_test";
  campaign.base = quick();
  campaign.base.traffic.pattern = Pattern::one_to_one;
  campaign.axes.push_back(sweep::Axis::flows({1, 2}));
  campaign.axes.push_back(sweep::Axis::seeds({1, 7}));

  const fs::path serial_dir = test_temp_dir("hostsim-obs-sweep-serial");
  const fs::path parallel_dir = test_temp_dir("hostsim-obs-sweep-parallel");
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);

  sweep::RunnerOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  serial.obs = full_obs(serial_dir.string());
  sweep::RunnerOptions parallel = serial;
  parallel.jobs = 8;
  parallel.obs.out_dir = parallel_dir.string();

  const sweep::CampaignResult from_serial = run_campaign(campaign, serial);
  const sweep::CampaignResult from_parallel =
      run_campaign(campaign, parallel);

  // Three artifacts per point (trace.json, timeseries.csv, latency.csv),
  // named by the point's config hash.
  const auto serial_files = dir_contents(serial_dir);
  const auto parallel_files = dir_contents(parallel_dir);
  ASSERT_EQ(serial_files.size(), 3 * campaign.num_points());
  EXPECT_EQ(serial_files, parallel_files);
  for (const sweep::PointResult& point : from_serial.points) {
    EXPECT_TRUE(
        serial_files.count(hash_hex(point.config_hash) + ".trace.json"))
        << point.point.label();
  }

  // Metrics and cache keys are exactly what an un-instrumented sweep
  // produces: obs rode along without touching either.
  sweep::RunnerOptions plain;
  plain.jobs = 1;
  plain.use_cache = false;
  const sweep::CampaignResult from_plain = run_campaign(campaign, plain);
  ASSERT_EQ(from_plain.points.size(), from_parallel.points.size());
  for (std::size_t i = 0; i < from_plain.points.size(); ++i) {
    EXPECT_EQ(from_plain.points[i].config_hash,
              from_parallel.points[i].config_hash);
    EXPECT_EQ(metrics_to_json(from_plain.points[i].metrics),
              metrics_to_json(from_parallel.points[i].metrics));
  }

  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

}  // namespace
}  // namespace hostsim
