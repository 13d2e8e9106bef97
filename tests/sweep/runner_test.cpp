// Satellite determinism guarantees of the sweep runner: re-running a
// campaign reproduces bit-identical metrics, a parallel run (--jobs 8)
// is byte-identical to a serial run — including under fault injection —
// and a second cached run serves every point from disk unchanged.
#include "sweep/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "sim/fault_injector.h"
#include "temp_dir.h"

namespace hostsim::sweep {
namespace {

namespace fs = std::filesystem;

ExperimentConfig quick() {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 4 * kMillisecond;
  return config;
}

Campaign quick_campaign() {
  Campaign campaign;
  campaign.name = "runner_test";
  campaign.base = quick();
  campaign.base.traffic.pattern = Pattern::one_to_one;
  campaign.axes.push_back(Axis::flows({1, 2}));
  campaign.axes.push_back(Axis::seeds({1, 7}));
  return campaign;
}

/// Campaign whose points exercise the fault injector (GE bursts and a
/// link flap inside the measurement window).
Campaign faulty_campaign() {
  Campaign campaign;
  campaign.name = "runner_fault_test";
  campaign.base = quick();
  FaultPlan bursty;
  bursty.gilbert_elliott = GilbertElliottConfig::for_average_loss(5e-3);
  FaultPlan flappy;
  flappy.link_flaps.push_back({3 * kMillisecond, kMillisecond / 2});
  campaign.axes.push_back(Axis::fault_plans(
      {{"bursty", bursty}, {"flappy", flappy}}));
  return campaign;
}

std::vector<std::string> metric_docs(const CampaignResult& result) {
  std::vector<std::string> docs;
  for (const PointResult& point : result.points) {
    docs.push_back(metrics_to_json(point.metrics));
  }
  return docs;
}

RunnerOptions uncached(int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  options.use_cache = false;
  return options;
}

TEST(RunnerTest, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(8), 8);
}

TEST(RunnerTest, SameCampaignTwiceIsBitIdentical) {
  const Campaign campaign = quick_campaign();
  const CampaignResult a = run_campaign(campaign, uncached(1));
  const CampaignResult b = run_campaign(campaign, uncached(1));
  ASSERT_EQ(a.points.size(), campaign.num_points());
  EXPECT_EQ(metric_docs(a), metric_docs(b));
}

TEST(RunnerTest, ParallelMatchesSerialBitForBit) {
  const Campaign campaign = quick_campaign();
  const CampaignResult serial = run_campaign(campaign, uncached(1));
  const CampaignResult parallel = run_campaign(campaign, uncached(8));
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  // Results must land in expansion order regardless of worker count...
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].point.index, i);
    EXPECT_EQ(parallel.points[i].point.label(), serial.points[i].point.label());
    EXPECT_EQ(parallel.points[i].config_hash, serial.points[i].config_hash);
  }
  // ...and every Metrics document must be byte-identical.
  EXPECT_EQ(metric_docs(parallel), metric_docs(serial));
}

TEST(RunnerTest, ParallelMatchesSerialUnderFaultInjection) {
  const Campaign campaign = faulty_campaign();
  const CampaignResult serial = run_campaign(campaign, uncached(1));
  const CampaignResult parallel = run_campaign(campaign, uncached(8));
  EXPECT_EQ(metric_docs(parallel), metric_docs(serial));
  // The fault plans must actually have fired, or this test proves nothing.
  std::uint64_t total_fault_events = 0;
  for (const PointResult& point : serial.points) {
    total_fault_events +=
        point.metrics.faults.wire_faults() + point.metrics.faults.flaps;
  }
  EXPECT_GT(total_fault_events, 0u);
}

TEST(RunnerTest, SecondRunIsFullyCacheServed) {
  const fs::path dir = test_temp_dir("hostsim-runner-cache-test");
  fs::remove_all(dir);

  RunnerOptions options;
  options.jobs = 2;
  options.use_cache = true;
  options.cache_dir = dir.string();

  const Campaign campaign = quick_campaign();
  const CampaignResult cold = run_campaign(campaign, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.simulated, campaign.num_points());

  const CampaignResult warm = run_campaign(campaign, options);
  EXPECT_EQ(warm.cache_hits, campaign.num_points());
  EXPECT_EQ(warm.simulated, 0u);
  for (const PointResult& point : warm.points) {
    EXPECT_TRUE(point.from_cache);
  }
  EXPECT_EQ(metric_docs(warm), metric_docs(cold));

  fs::remove_all(dir);
}

// The runner's obs lens replaces each simulated point's obs section but
// keeps the point's own flight recorder, which lives there too.
TEST(RunnerTest, RunnerObsKeepsThePointsFlightRecorder) {
  Campaign campaign;
  campaign.name = "runner_trace_test";
  campaign.base = quick();
  campaign.base.obs.trace_capacity = 256;
  RunnerOptions options = uncached(1);
  options.obs.span_rate = 0.01;
  const CampaignResult result = run_campaign(campaign, options);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_FALSE(result.points[0].metrics.trace.empty());
  EXPECT_LE(result.points[0].metrics.trace.size(), 2u * 256u);
}

TEST(RunnerTest, ProgressCallbackSeesEveryPoint) {
  const Campaign campaign = quick_campaign();
  RunnerOptions options = uncached(8);
  std::vector<std::size_t> seen;
  options.on_point = [&seen](const CampaignPoint& point, bool /*from_cache*/) {
    seen.push_back(point.index);
  };
  run_campaign(campaign, options);
  ASSERT_EQ(seen.size(), campaign.num_points());
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace hostsim::sweep
