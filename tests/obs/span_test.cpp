#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/experiment.h"

namespace hostsim::obs {
namespace {

TEST(SpanTracerTest, ZeroRateNeverSamples) {
  SpanTracer tracer(/*seed=*/1, /*sample_rate=*/0.0, /*max_spans=*/1024);
  EXPECT_FALSE(tracer.enabled());
  for (int seq = 0; seq < 100; ++seq) {
    EXPECT_EQ(tracer.maybe_start(0, 0, seq * 1448, 1448, seq), -1);
  }
  EXPECT_EQ(tracer.started(), 0u);
}

TEST(SpanTracerTest, FullRateSamplesEverything) {
  SpanTracer tracer(1, 1.0, 1024);
  for (int seq = 0; seq < 50; ++seq) {
    EXPECT_GE(tracer.maybe_start(0, 0, seq * 1448, 1448, seq), 0);
  }
  EXPECT_EQ(tracer.started(), 50u);
}

TEST(SpanTracerTest, SamplingIsAPureHashOfSeedAndIdentity) {
  // Same (seed, host, flow, seq) -> same decision, independent of call
  // order or any other tracer state.
  SpanTracer a(42, 0.25, 1 << 20);
  SpanTracer b(42, 0.25, 1 << 20);
  int sampled = 0;
  for (int seq = 0; seq < 4000; ++seq) {
    const bool in_a = a.maybe_start(1, 3, seq, 1448, seq) >= 0;
    const bool in_b = b.maybe_start(1, 3, seq, 1448, seq) >= 0;
    EXPECT_EQ(in_a, in_b) << "seq " << seq;
    sampled += in_a ? 1 : 0;
  }
  // Rate should land near 25% (pure-hash uniformity, wide tolerance).
  EXPECT_GT(sampled, 4000 / 8);
  EXPECT_LT(sampled, 4000 / 2);

  // A different seed picks a different subset.
  SpanTracer c(43, 0.25, 1 << 20);
  int agree = 0;
  for (int seq = 0; seq < 4000; ++seq) {
    const bool in_a = b.maybe_start(2, 3, seq, 1448, seq) >= 0;
    const bool in_c = c.maybe_start(2, 3, seq, 1448, seq) >= 0;
    agree += in_a == in_c ? 1 : 0;
  }
  EXPECT_LT(agree, 4000);
}

TEST(SpanTracerTest, StampsAreIdempotentAndOrdered) {
  SpanTracer tracer(1, 1.0, 16);
  const std::int32_t id = tracer.maybe_start(0, 0, 0, 1448, 100);
  ASSERT_GE(id, 0);
  tracer.stamp(id, Stage::irq, 150);
  tracer.stamp(id, Stage::irq, 999);  // second IRQ kick: ignored
  tracer.stamp(id, Stage::gro, 200);
  tracer.stamp(id, Stage::tcpip, 250);
  tracer.stamp(id, Stage::wakeup, 300);
  tracer.stamp(id, Stage::copy, 400);
  tracer.complete(id);

  const Span& span = tracer.spans()[static_cast<std::size_t>(id)];
  EXPECT_TRUE(span.completed);
  EXPECT_EQ(span.at[static_cast<std::size_t>(Stage::nic_dma)], 100);
  EXPECT_EQ(span.at[static_cast<std::size_t>(Stage::irq)], 150);
  EXPECT_EQ(span.at[static_cast<std::size_t>(Stage::copy)], 400);

  const std::vector<StageSummary> summary = tracer.summary();
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(summary.back().stage, "total");
  EXPECT_EQ(summary.back().p50, 300);  // copy - nic_dma
  for (const StageSummary& stage : summary) {
    EXPECT_LE(stage.p50, stage.p99) << stage.stage;
  }
}

TEST(SpanTracerTest, MissingIrqStampMeasuresBetweenPresentStamps) {
  // Frames that arrive during an active NAPI poll get no IRQ stamp; the
  // nic_dma stage then runs to the next *present* stamp (gro).
  SpanTracer tracer(1, 1.0, 16);
  const std::int32_t id = tracer.maybe_start(0, 0, 0, 1448, 100);
  ASSERT_GE(id, 0);
  tracer.stamp(id, Stage::gro, 180);
  tracer.stamp(id, Stage::tcpip, 220);
  tracer.stamp(id, Stage::copy, 320);
  tracer.complete(id);

  bool saw_irq = false;
  Nanos nic_dma_p50 = -1;
  for (const StageSummary& stage : tracer.summary()) {
    if (stage.stage == "irq") saw_irq = true;
    if (stage.stage == "nic_dma") nic_dma_p50 = stage.p50;
  }
  EXPECT_FALSE(saw_irq);          // zero-count stages are omitted
  EXPECT_EQ(nic_dma_p50, 80);     // 180 - 100, skipping the absent irq
}

TEST(SpanTracerTest, MaxSpansCapsRetention) {
  SpanTracer tracer(1, 1.0, 8);
  for (int seq = 0; seq < 20; ++seq) {
    tracer.maybe_start(0, 0, seq, 1448, seq);
  }
  EXPECT_EQ(tracer.spans().size(), 8u);
  EXPECT_EQ(tracer.started(), 8u);
  EXPECT_EQ(tracer.capped(), 12u);
}

TEST(SpanTracerTest, SpansOfEveryFlowFoldIntoTheAggregate) {
  SpanTracer tracer(1, 1.0, 64);
  for (int flow = 0; flow < 2; ++flow) {
    const std::int32_t id = tracer.maybe_start(0, flow, 0, 1448, 0);
    ASSERT_GE(id, 0);
    tracer.stamp(id, Stage::copy, 100 * (flow + 1));
    tracer.complete(id);
  }
  EXPECT_EQ(tracer.summary().back().count, 2u);
}

// -- integration: spans through a real experiment --------------------

std::set<std::string> stage_names(const Metrics& metrics) {
  std::set<std::string> names;
  for (const StageSummary& stage : metrics.obs_stages) {
    names.insert(stage.stage);
  }
  return names;
}

TEST(SpanIntegrationTest, SingleFlowPopulatesPipelineStages) {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 5 * kMillisecond;
  config.obs.span_rate = 1.0;
  const Metrics metrics = run_experiment(config);

  const std::set<std::string> names = stage_names(metrics);
  // The Fig. 1 pipeline.  `copy` is the final stamp, so it has no
  // duration row of its own — its time shows up in `total`.
  for (const char* expected : {"nic_dma", "gro", "tcpip", "total"}) {
    EXPECT_TRUE(names.count(expected)) << "missing stage " << expected;
  }
  EXPECT_GE(names.size(), 4u);
  for (const StageSummary& stage : metrics.obs_stages) {
    EXPECT_GT(stage.count, 0u) << stage.stage;
    EXPECT_LE(stage.p50, stage.p99) << stage.stage;
    EXPECT_GE(stage.p50, 0) << stage.stage;
  }
}

TEST(SpanIntegrationTest, IncastClusterPopulatesPipelineStages) {
  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 6;
  config.warmup = 2 * kMillisecond;
  config.duration = 5 * kMillisecond;
  config.obs.span_rate = 1.0;
  const Metrics metrics = run_experiment(config);

  const std::set<std::string> names = stage_names(metrics);
  EXPECT_GE(names.size(), 4u);
  EXPECT_TRUE(names.count("total"));
  EXPECT_TRUE(names.count("tcpip"));
}

TEST(SpanIntegrationTest, SampledSubsetStaysDeterministic) {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 4 * kMillisecond;
  config.obs.span_rate = 0.1;
  const Metrics first = run_experiment(config);
  const Metrics second = run_experiment(config);
  ASSERT_EQ(first.obs_stages.size(), second.obs_stages.size());
  for (std::size_t i = 0; i < first.obs_stages.size(); ++i) {
    EXPECT_EQ(first.obs_stages[i].stage, second.obs_stages[i].stage);
    EXPECT_EQ(first.obs_stages[i].count, second.obs_stages[i].count);
    EXPECT_EQ(first.obs_stages[i].p50, second.obs_stages[i].p50);
    EXPECT_EQ(first.obs_stages[i].p99, second.obs_stages[i].p99);
  }
}

}  // namespace
}  // namespace hostsim::obs
