// Open-loop engine end-to-end: deterministic replay, request lifecycle
// records, overload (offered > completed), connection churn through the
// full SYN/FIN machinery, fan-out trees, listen-backlog overflow, JSONL
// export, metrics round-trip, parallel-sweep bit-identity, and the
// legacy byte-identity pins.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sweep/artifact.h"
#include "sweep/campaign.h"
#include "sweep/runner.h"
#include "workload/request_record.h"

namespace hostsim {
namespace {

/// Two backends behind a switch, 4 connection slots, modest load.
ExperimentConfig open_loop_config() {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::open_loop;
  config.traffic.flows = 4;
  config.traffic.rpc_size = 4 * kKiB;
  config.traffic.workload.enabled = true;
  config.traffic.workload.rate_rps = 10'000;
  config.topology.num_hosts = 3;
  config.topology.use_switch = true;
  config.topology.switch_buffer = 256 * kKiB;
  config.topology.switch_ecn_bytes = 64 * kKiB;
  config.warmup = 2 * kMillisecond;
  config.duration = 8 * kMillisecond;
  return config;
}

TEST(OpenLoopTest, CompletesRequestsAndPopulatesWorkloadMetrics) {
  const Metrics m = run_experiment(open_loop_config());
  ASSERT_TRUE(m.has_workload);
  EXPECT_GT(m.workload.offered, 0u);
  EXPECT_GT(m.workload.completed, 0u);
  EXPECT_GT(m.workload.offered_rps, 0.0);
  EXPECT_GT(m.workload.latency_p50, 0);
  EXPECT_GE(m.workload.latency_p99, m.workload.latency_p50);
  EXPECT_GE(m.workload.latency_p999, m.workload.latency_p99);
  EXPECT_EQ(m.workload.conns_opened, 4u);     // no churn: pool only
  EXPECT_EQ(m.workload.connect_failures, 0u);
  EXPECT_GE(m.workload.syns_sent, 4u);
  EXPECT_GE(m.workload.accepts, 4u);
  EXPECT_FALSE(m.workload_records.empty());
  EXPECT_EQ(m.invariant_violations, 0u);
}

TEST(OpenLoopTest, ReplaysBitIdentically) {
  const Metrics a = run_experiment(open_loop_config());
  const Metrics b = run_experiment(open_loop_config());
  EXPECT_EQ(metrics_to_json(a), metrics_to_json(b));
  std::ostringstream ja;
  std::ostringstream jb;
  workload::write_records_jsonl(a.workload_records, ja);
  workload::write_records_jsonl(b.workload_records, jb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_FALSE(ja.str().empty());
}

TEST(OpenLoopTest, RecordsRespectLifecycleOrdering) {
  const Metrics m = run_experiment(open_loop_config());
  ASSERT_FALSE(m.workload_records.empty());
  std::uint64_t completed = 0;
  Nanos last_arrival = -1;
  for (const workload::RequestRecord& r : m.workload_records) {
    EXPECT_GE(r.arrival, last_arrival);  // arrival-ordered
    last_arrival = r.arrival;
    if (r.completion < 0) continue;
    ++completed;
    EXPECT_LE(r.arrival, r.dispatch);
    EXPECT_LE(r.dispatch, r.first_byte);
    EXPECT_LE(r.first_byte, r.completion);
    EXPECT_GT(r.bytes, 0);
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(m.workload.offered, m.workload.completed + m.workload.incomplete);
}

// The open-loop property itself: a generator that does not wait for
// completions keeps offering load the host cannot serve, so requests
// pile up in per-slot queues and most never finish inside the run.
TEST(OpenLoopTest, OverloadLeavesRequestsIncomplete) {
  // Far past saturation the backlog grows without bound: in-window
  // requests mostly never even dispatch before the run ends.
  ExperimentConfig config = open_loop_config();
  config.traffic.workload.rate_rps = 2'000'000;
  const Metrics m = run_experiment(config);
  ASSERT_TRUE(m.has_workload);
  EXPECT_GT(m.workload.offered, m.workload.completed);
  EXPECT_GT(m.workload.incomplete, m.workload.completed);
  EXPECT_EQ(m.invariant_violations, 0u);
}

TEST(OpenLoopTest, QueueingDelayGrowsWithOfferedLoad) {
  ExperimentConfig light = open_loop_config();
  ExperimentConfig heavy = open_loop_config();
  heavy.traffic.workload.rate_rps = 120'000;
  const Metrics a = run_experiment(light);
  const Metrics b = run_experiment(heavy);
  ASSERT_TRUE(a.has_workload);
  ASSERT_TRUE(b.has_workload);
  EXPECT_GT(b.workload.queue_p99, 0);
  EXPECT_GT(b.workload.queue_p99, a.workload.queue_p99);
  EXPECT_GT(b.workload.latency_p99, a.workload.latency_p99);
}

TEST(OpenLoopTest, ChurnExercisesHandshakeAndTimeWait) {
  ExperimentConfig config = open_loop_config();
  config.traffic.workload.churn_prob = 1.0;
  config.traffic.workload.time_wait = 500 * kMicrosecond;
  const Metrics m = run_experiment(config);
  ASSERT_TRUE(m.has_workload);
  EXPECT_GT(m.workload.completed, 0u);
  EXPECT_GT(m.workload.conns_closed, 4u);
  EXPECT_GT(m.workload.conns_opened, m.workload.conns_closed);
  EXPECT_GT(m.workload.time_wait_entered, 0u);
  EXPECT_GT(m.workload.time_wait_reaped, 0u);
  EXPECT_GT(m.workload.time_wait_peak, 0u);
  EXPECT_GE(m.workload.socket_table_peak, 4u);
  EXPECT_EQ(m.workload.conns_closed, m.workload.time_wait_entered);
  EXPECT_EQ(m.invariant_violations, 0u);
  // Fresh connections are visible in the per-request records.
  bool fresh_seen = false;
  for (const workload::RequestRecord& r : m.workload_records) {
    fresh_seen |= r.fresh_conn;
  }
  EXPECT_TRUE(fresh_seen);
}

// Partial churn retires pooled connections that have carried many
// requests; the window's per-host byte deltas must still count what
// those sockets delivered, never going negative.
TEST(OpenLoopTest, ChurnKeepsPerHostByteTotalsNonNegative) {
  ExperimentConfig config = open_loop_config();
  config.traffic.workload.rate_rps = 20'000;
  config.traffic.workload.churn_prob = 0.1;
  config.traffic.workload.time_wait = 500 * kMicrosecond;
  const Metrics m = run_experiment(config);
  ASSERT_EQ(m.per_host.size(), 3u);
  EXPECT_GT(m.app_bytes, 0);
  for (const Metrics::HostMetrics& host : m.per_host) {
    EXPECT_GE(host.app_bytes, 0) << "host " << host.host;
    EXPECT_GE(host.gbps, 0.0) << "host " << host.host;
  }
}

TEST(OpenLoopTest, FanOutGatesOnSlowestLeaf) {
  ExperimentConfig config = open_loop_config();
  config.topology.num_hosts = 5;
  config.traffic.flows = 8;
  config.traffic.workload.fan_out = 4;
  config.traffic.workload.rate_rps = 5'000;
  const Metrics m = run_experiment(config);
  ASSERT_TRUE(m.has_workload);
  EXPECT_GT(m.workload.completed, 0u);
  // Every completed request waited for 4 leaves.
  EXPECT_GE(m.workload.fanout_leaves, 4 * m.workload.completed);
  EXPECT_GE(m.workload.latency_p99, m.workload.leaf_p99);
  for (const workload::RequestRecord& r : m.workload_records) {
    EXPECT_EQ(r.fan_out, 4);
  }
  EXPECT_EQ(m.invariant_violations, 0u);
}

// Satellite: a full accept backlog drops SYNs (observable overflow), and
// the client's SYN retransmit timer eventually establishes every slot.
TEST(OpenLoopTest, ListenBacklogOverflowDropsAndRecovers) {
  ExperimentConfig config = open_loop_config();
  config.topology.num_hosts = 2;  // one backend: all SYNs collide
  config.traffic.flows = 4;
  config.traffic.workload.listen_backlog = 1;
  config.traffic.workload.syn_retry = 100 * kMicrosecond;
  config.traffic.workload.max_syn_retries = 10;
  const Metrics m = run_experiment(config);
  ASSERT_TRUE(m.has_workload);
  EXPECT_GT(m.workload.listen_overflows, 0u);
  EXPECT_GT(m.workload.syn_retries, 0u);
  EXPECT_EQ(m.workload.connect_failures, 0u);
  EXPECT_EQ(m.workload.accepts, 4u);  // every slot eventually up
  EXPECT_GT(m.workload.completed, 0u);
  EXPECT_EQ(m.invariant_violations, 0u);
}

TEST(OpenLoopTest, JsonlRecordsParseLineByLine) {
  const Metrics m = run_experiment(open_loop_config());
  std::ostringstream out;
  workload::write_records_jsonl(m.workload_records, out);
  const std::string text = out.str();
  std::istringstream lines(text);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const std::optional<JsonValue> value = JsonValue::parse(line);
    ASSERT_TRUE(value.has_value()) << line;
    ASSERT_TRUE(value->is_object());
    EXPECT_NE(value->find("id"), nullptr);
    EXPECT_NE(value->find("arrival_ns"), nullptr);
    EXPECT_NE(value->find("completion_ns"), nullptr);
    EXPECT_NE(value->find("bytes"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, m.workload_records.size());
}

// Satellite: workload_matrix-style campaign artifacts are bit-identical
// between a serial run and a --jobs=8 run.
TEST(OpenLoopTest, SweepParallelScheduleIsBitIdentical) {
  sweep::Campaign campaign;
  campaign.name = "workload_mini";
  campaign.description = "rate x size-mix, open loop";
  campaign.base = open_loop_config();
  campaign.base.duration = 4 * kMillisecond;
  campaign.axes.push_back(sweep::Axis::of(
      "rate", {{"10k", [](ExperimentConfig& c) {
                  c.traffic.workload.rate_rps = 10'000;
                }},
               {"40k", [](ExperimentConfig& c) {
                  c.traffic.workload.rate_rps = 40'000;
                }}}));
  campaign.axes.push_back(sweep::Axis::of(
      "sizes", {{"fixed", [](ExperimentConfig& c) {
                   c.traffic.workload.sizes = SizeDist::fixed;
                 }},
                {"pareto", [](ExperimentConfig& c) {
                   c.traffic.workload.sizes = SizeDist::bounded_pareto;
                 }}}));

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

// Satellite: Metrics workload fields survive a JSON round trip.
TEST(OpenLoopTest, WorkloadMetricsJsonRoundTrip) {
  Metrics m;
  m.has_workload = true;
  m.workload.offered = 1000;
  m.workload.completed = 900;
  m.workload.incomplete = 100;
  m.workload.offered_rps = 125'000.5;
  m.workload.completed_rps = 112'500.25;
  m.workload.latency_p50 = 40 * kMicrosecond;
  m.workload.latency_p95 = 70 * kMicrosecond;
  m.workload.latency_p99 = 90 * kMicrosecond;
  m.workload.latency_p999 = 400 * kMicrosecond;
  m.workload.queue_p50 = 5 * kMicrosecond;
  m.workload.queue_p99 = 80 * kMicrosecond;
  m.workload.first_byte_p99 = 60 * kMicrosecond;
  m.workload.connect_p99 = 12 * kMicrosecond;
  m.workload.leaf_p99 = 55 * kMicrosecond;
  m.workload.fanout_leaves = 3600;
  m.workload.slo_violations = 17;
  m.workload.conns_opened = 42;
  m.workload.conns_closed = 38;
  m.workload.redispatches = 3;
  m.workload.syns_sent = 50;
  m.workload.syn_retries = 8;
  m.workload.syns_received = 49;
  m.workload.listen_overflows = 4;
  m.workload.accepts = 45;
  m.workload.connect_failures = 1;
  m.workload.time_wait_entered = 38;
  m.workload.time_wait_reaped = 30;
  m.workload.time_wait_peak = 9;
  m.workload.socket_table_peak = 13;

  const std::optional<Metrics> parsed = metrics_from_json(metrics_to_json(m));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_workload);
  EXPECT_EQ(metrics_to_json(*parsed), metrics_to_json(m));
  EXPECT_EQ(parsed->workload.offered, m.workload.offered);
  EXPECT_EQ(parsed->workload.latency_p999, m.workload.latency_p999);
  EXPECT_EQ(parsed->workload.socket_table_peak,
            m.workload.socket_table_peak);
}

// Satellite: legacy metrics documents carry none of the new keys, so
// every pre-existing cached result and baseline artifact stays
// byte-identical to before the workload engine existed.
TEST(OpenLoopTest, LegacyDocumentsCarryNoWorkloadKeys) {
  const Metrics metrics;
  EXPECT_EQ(metrics_to_json(metrics).find("workload"), std::string::npos);

  // A legacy run keeps its exact per-run document too.
  ExperimentConfig run_config;
  run_config.warmup = 2 * kMillisecond;
  run_config.duration = 3 * kMillisecond;
  const Metrics run = run_experiment(run_config);
  EXPECT_FALSE(run.has_workload);
  EXPECT_TRUE(run.workload_records.empty());
  EXPECT_EQ(metrics_to_json(run).find("workload"), std::string::npos);
}

}  // namespace
}  // namespace hostsim
