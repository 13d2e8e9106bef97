#include "obs/event_trace.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string_view>

#include "core/experiment.h"

namespace hostsim {
namespace {

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(0);
  EXPECT_FALSE(tracer.enabled());
  tracer.record(1, TraceKind::data_copy, 0, 10, 20);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, RecordsInOrder) {
  Tracer tracer(8);
  for (int i = 0; i < 5; ++i) {
    tracer.record(i * 100, TraceKind::ack_tx, i, i, 0);
  }
  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(snapshot[static_cast<std::size_t>(i)].at, i * 100);
    EXPECT_EQ(snapshot[static_cast<std::size_t>(i)].flow, i);
  }
}

TEST(TracerTest, RingKeepsNewestWhenFull) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(i, TraceKind::data_copy, i, 0, 0);
  }
  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().at, 6);  // oldest kept
  EXPECT_EQ(snapshot.back().at, 9);   // newest
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.overwritten(), 6u);
}

TEST(TracerTest, CsvDumpHasHeaderAndRows) {
  Tracer tracer(4, /*host=*/1);
  tracer.record(42, TraceKind::retransmit, 7, 100, 200);
  std::ostringstream out;
  tracer.dump_csv(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("time_ns,kind,host,flow,a,b"), std::string::npos);
  EXPECT_NE(text.find("42,retransmit,1,7,100,200"), std::string::npos);
}

TEST(TracerTest, KindNamesAreStable) {
  EXPECT_EQ(to_string(TraceKind::skb_deliver), "skb_deliver");
  EXPECT_EQ(to_string(TraceKind::grant), "grant");
}

// Exhaustive round-trip over every TraceKind: each kind has a real name
// (no "?" fallthrough) and from_string() inverts to_string().  Together
// with the kNumTraceKinds static_assert and the covered switch in
// to_string(), adding a kind without updating the names breaks here.
TEST(TracerTest, KindNamesRoundTripExhaustively) {
  for (std::size_t i = 0; i < kNumTraceKinds; ++i) {
    const auto kind = static_cast<TraceKind>(i);
    const std::string_view name = to_string(kind);
    EXPECT_NE(name, "?") << "kind " << i << " has no name";
    TraceKind parsed{};
    ASSERT_TRUE(trace_kind_from_string(name, parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
  }
  TraceKind parsed{};
  EXPECT_FALSE(trace_kind_from_string("no_such_kind", parsed));
  EXPECT_FALSE(trace_kind_from_string("", parsed));
}

// snapshot() must unwrap the ring into time order even when the write
// cursor sits mid-ring (oldest entry is *after* the cursor).
TEST(TracerTest, SnapshotUnwrapsRingAtEveryCursorPosition) {
  for (int extra = 1; extra < 9; ++extra) {
    Tracer tracer(4);
    for (int i = 0; i < 4 + extra; ++i) {
      tracer.record(i, TraceKind::data_copy, i, 0, 0);
    }
    const auto snapshot = tracer.snapshot();
    ASSERT_EQ(snapshot.size(), 4u) << "extra=" << extra;
    for (std::size_t i = 0; i + 1 < snapshot.size(); ++i) {
      EXPECT_LT(snapshot[i].at, snapshot[i + 1].at) << "extra=" << extra;
    }
    EXPECT_EQ(snapshot.back().at, 4 + extra - 1);
  }
}

TEST(TraceIntegrationTest, ExperimentProducesMergedTimeOrderedTrace) {
  ExperimentConfig config;
  config.obs.trace_capacity = 4096;
  config.warmup = 3 * kMillisecond;
  config.duration = 4 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  ASSERT_FALSE(metrics.trace.empty());
  bool saw_copy = false;
  bool saw_ack_rx = false;
  Nanos previous = 0;
  for (const TraceRecord& record : metrics.trace) {
    EXPECT_GE(record.at, previous);
    previous = record.at;
    saw_copy = saw_copy || record.kind == TraceKind::data_copy;
    saw_ack_rx = saw_ack_rx || record.kind == TraceKind::ack_rx;
  }
  EXPECT_TRUE(saw_copy);
  EXPECT_TRUE(saw_ack_rx);
}

// Satellite of the obs PR: the merged cluster trace is stable-sorted by
// (at, host), so records from different hosts at the same instant land
// in a deterministic order instead of whatever std::sort tie-broke to.
TEST(TraceIntegrationTest, ClusterMergeOrdersByTimeThenHost) {
  ExperimentConfig config;
  config.topology.num_hosts = 3;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 4;
  config.obs.trace_capacity = 4096;
  config.warmup = 2 * kMillisecond;
  config.duration = 4 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  ASSERT_FALSE(metrics.trace.empty());

  std::set<int> hosts;
  std::size_t ties = 0;
  for (std::size_t i = 1; i < metrics.trace.size(); ++i) {
    const TraceRecord& prev = metrics.trace[i - 1];
    const TraceRecord& cur = metrics.trace[i];
    ASSERT_LE(prev.at, cur.at);
    if (prev.at == cur.at) {
      ++ties;
      EXPECT_LE(prev.host, cur.host)
          << "same-instant records out of host order at " << cur.at;
    }
    hosts.insert(cur.host);
  }
  EXPECT_GE(hosts.size(), 3u);  // all three hosts contributed
  EXPECT_GT(ties, 0u);          // the tie-break was actually exercised
}

TEST(TraceIntegrationTest, TraceOffByDefault) {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 2 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_TRUE(metrics.trace.empty());
}

}  // namespace
}  // namespace hostsim
