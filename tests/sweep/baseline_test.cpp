#include "sweep/baseline.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "core/serialize.h"
#include "sweep/artifact.h"
#include "sweep/campaign.h"
#include "sweep/runner.h"

namespace hostsim::sweep {
namespace {

/// Synthetic two-point campaign result — no simulation needed to test
/// the artifact/gate plumbing.
CampaignResult sample_result() {
  CampaignResult result;
  result.campaign = "gate_test";
  result.description = "synthetic";
  result.simulated = 2;

  Campaign campaign;
  campaign.name = "gate_test";
  campaign.axes.push_back(Axis::flows({1, 8}));
  for (CampaignPoint& point : campaign.expand()) {
    PointResult pr;
    pr.config_hash = config_hash(point.config);
    pr.metrics.window = 25 * kMillisecond;
    pr.metrics.app_bytes = 1000 * (point.index + 1);
    pr.metrics.total_gbps = 10.0 * static_cast<double>(point.index + 1);
    pr.metrics.sender_cycles.add(CpuCategory::data_copy, 500);
    pr.metrics.flows.push_back(
        {static_cast<int>(point.index), 1000, pr.metrics.total_gbps});
    pr.point = std::move(point);
    result.points.push_back(std::move(pr));
  }
  return result;
}

TEST(GateTest, ResultGatesCleanAgainstItself) {
  const std::string artifact = campaign_to_json(sample_result(), "test");
  const GateReport report = gate_against_baseline(artifact, artifact);
  EXPECT_TRUE(report.ok()) << format_gate_report(report);
  EXPECT_EQ(report.points_compared, 2u);
  EXPECT_GT(report.metrics_compared, 0u);
  EXPECT_NE(format_gate_report(report).find("gate OK"), std::string::npos);
}

TEST(GateTest, OutOfToleranceMetricViolates) {
  const std::string baseline = campaign_to_json(sample_result(), "test");
  CampaignResult drifted = sample_result();
  drifted.points[1].metrics.total_gbps *= 1.05;  // +5%
  const std::string artifact = campaign_to_json(drifted, "test");

  const GateReport strict = gate_against_baseline(artifact, baseline);
  ASSERT_FALSE(strict.ok());
  bool found = false;
  for (const GateViolation& v : strict.violations) {
    if (v.metric == "total_gbps" && v.point == "flows=8") found = true;
  }
  EXPECT_TRUE(found) << format_gate_report(strict);
  EXPECT_NE(format_gate_report(strict).find("gate FAILED"),
            std::string::npos);

  // A per-metric tolerance wide enough for the drift must pass.
  GateOptions lenient;
  lenient.per_metric["total_gbps"] = Tolerance{0.10, 0.0};
  lenient.per_metric["flows.0.gbps"] = Tolerance{0.10, 0.0};
  EXPECT_TRUE(gate_against_baseline(artifact, baseline, lenient).ok());

  // So must a global relative fallback.
  GateOptions global;
  global.fallback = Tolerance{0.10, 1e-9};
  EXPECT_TRUE(gate_against_baseline(artifact, baseline, global).ok());
}

// Tolerances address nested metrics by the names the gate flattens out
// of the metrics JSON: dotted for objects, indexed for arrays.  Each name
// must be tolerable and violable on its own through per_metric.
TEST(GateTest, PerMetricTolerancesAddressNestedNames) {
  CampaignResult base = sample_result();
  for (PointResult& point : base.points) {
    point.metrics.sender_cycles.add(CpuCategory::tcpip, 1000);
    point.metrics.faults.watchdog_trips = 10;
    point.metrics.per_host.push_back({0, 1.0, 0.5, 1000, 20.0});
  }
  CampaignResult drifted = base;
  for (PointResult& point : drifted.points) {
    point.metrics.sender_cycles.add(CpuCategory::tcpip, 50);  // +5%
    point.metrics.faults.watchdog_trips = 11;                 // +10%
    point.metrics.per_host[0].gbps *= 1.2;                    // +20%
  }
  const std::string baseline = campaign_to_json(base, "test");
  const std::string artifact = campaign_to_json(drifted, "test");
  const std::map<std::string, double> drift = {
      {"sender_cycles.tcpip", 0.05},
      {"faults.watchdog_trips", 0.10},
      {"per_host.0.gbps", 0.20}};

  for (const auto& [name, rel] : drift) {
    GateOptions options;
    for (const auto& [other, other_rel] : drift) {
      options.per_metric[other] = Tolerance{other_rel * 1.5, 0.0};
    }
    const GateReport tolerated =
        gate_against_baseline(artifact, baseline, options);
    EXPECT_TRUE(tolerated.ok()) << format_gate_report(tolerated);

    options.per_metric[name] = Tolerance{rel * 0.5, 0.0};
    const GateReport violated =
        gate_against_baseline(artifact, baseline, options);
    ASSERT_EQ(violated.violations.size(), base.points.size())
        << format_gate_report(violated);
    for (const GateViolation& v : violated.violations) {
      EXPECT_EQ(v.metric, name);
    }
  }
}

TEST(GateTest, MissingAndExtraPointsViolate) {
  const std::string baseline = campaign_to_json(sample_result(), "test");
  CampaignResult truncated = sample_result();
  truncated.points.pop_back();
  const GateReport report =
      gate_against_baseline(campaign_to_json(truncated, "test"), baseline);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].metric, "points");
  EXPECT_EQ(report.violations[0].point, "flows=8");

  // Reversed roles: the result has a point the baseline lacks.
  const GateReport extra =
      gate_against_baseline(baseline, campaign_to_json(truncated, "test"));
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.violations[0].metric, "points");
}

TEST(GateTest, ConfigDriftViolatesUnlessAllowed) {
  const std::string baseline = campaign_to_json(sample_result(), "test");
  CampaignResult drifted = sample_result();
  drifted.points[0].config_hash ^= 1;  // same metrics, different config
  const std::string artifact = campaign_to_json(drifted, "test");

  const GateReport strict = gate_against_baseline(artifact, baseline);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.violations[0].metric, "config_hash");

  GateOptions options;
  options.allow_config_drift = true;
  EXPECT_TRUE(gate_against_baseline(artifact, baseline, options).ok());
}

TEST(GateTest, MalformedInputReportsErrorNotCrash) {
  const std::string artifact = campaign_to_json(sample_result(), "test");
  EXPECT_FALSE(gate_against_baseline("{not json", artifact).ok());
  EXPECT_FALSE(gate_against_baseline(artifact, "{}").ok());
  const GateReport report = gate_against_baseline(artifact, "{}");
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(format_gate_report(report).find("gate ERROR"), std::string::npos);
}

/// A real two-point campaign of short switched RPC runs through a host
/// crash, so its points carry the per-host, fabric and recovery sections.
CampaignResult crash_campaign_result() {
  Campaign campaign;
  campaign.name = "gate_property";
  campaign.base.traffic.pattern = Pattern::rpc_incast;
  campaign.base.topology.num_hosts = 3;
  campaign.base.topology.use_switch = true;
  campaign.base.faults.host_crashes.push_back(
      {kMillisecond, kMillisecond / 2, 0});
  campaign.base.warmup = kMillisecond;
  campaign.base.duration = 2 * kMillisecond;
  campaign.axes.push_back(Axis::flows({1, 2}));
  RunnerOptions options;
  options.jobs = 1;
  options.use_cache = false;
  return run_campaign(campaign, options);
}

// Truncated and bit-flipped inputs are data, not crashes: every strict
// prefix of an artifact or a metrics document is a parse error the gate
// reports, and random byte flips end in a report of some kind.
TEST(GatePropertyTest, PrefixesAndByteFlipsNeverCrash) {
  const CampaignResult result = crash_campaign_result();
  const std::string artifact = campaign_to_json(result, "test");
  const std::string metrics = metrics_to_json(result.points.front().metrics);
  ASSERT_TRUE(gate_against_baseline(artifact, artifact).ok());
  std::mt19937_64 rng(0xf1195);
  for (const std::string* doc : {&artifact, &metrics}) {
    for (std::size_t length = 0; length < doc->size(); ++length) {
      const std::string prefix = doc->substr(0, length);
      ASSERT_FALSE(JsonValue::parse(prefix).has_value()) << prefix;
      EXPECT_FALSE(gate_against_baseline(prefix, artifact).error.empty());
      EXPECT_FALSE(gate_against_baseline(artifact, prefix).error.empty());
    }
    for (int trial = 0; trial < 1000; ++trial) {
      std::string damaged = *doc;
      for (int flip = 1 + static_cast<int>(rng() % 4); flip > 0; --flip) {
        damaged[rng() % damaged.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      (void)JsonValue::parse(damaged);
      (void)metrics_from_json(damaged);
      EXPECT_FALSE(
          format_gate_report(gate_against_baseline(damaged, artifact)).empty());
      EXPECT_FALSE(
          format_gate_report(gate_against_baseline(artifact, damaged)).empty());
    }
  }
}

}  // namespace
}  // namespace hostsim::sweep
