#include "obs/registry.h"

#include <gtest/gtest.h>

#include "obs/sampler.h"
#include "sim/event_loop.h"

namespace hostsim::obs {
namespace {

TEST(RegistryTest, CounterFindOrCreateReturnsStableCell) {
  Registry registry;
  Registry::Counter& drops = registry.counter("nic.drops");
  drops.add();
  drops.add(3);
  EXPECT_EQ(drops.value(), 4u);
  // Same name resolves to the same cell, not a fresh zero.
  EXPECT_EQ(&registry.counter("nic.drops"), &drops);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(RegistryTest, GaugeReadsLiveState) {
  Registry registry;
  double cwnd = 10.0;
  registry.gauge("flow0.cwnd", [&cwnd] { return cwnd; });
  EXPECT_EQ(registry.read(0), 10.0);
  cwnd = 64.0;
  EXPECT_EQ(registry.read(0), 64.0);
}

TEST(RegistryTest, NamesFollowRegistrationOrder) {
  Registry registry;
  registry.counter("b");
  registry.gauge("a", [] { return 0.0; });
  registry.counter("c");
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "b");  // insertion order, not sorted
  EXPECT_EQ(names[1], "a");
  EXPECT_EQ(names[2], "c");
}

TEST(RegistryTest, ReadByIndexCoversCountersAndGauges) {
  Registry registry;
  registry.counter("events").add(7);
  registry.gauge("depth", [] { return 2.5; });
  EXPECT_EQ(registry.read(0), 7.0);
  EXPECT_EQ(registry.read(1), 2.5);
}

TEST(SamplerTest, TicksAtPeriodAndFreezesColumns) {
  EventLoop loop;
  Registry registry;
  Registry::Counter& events = registry.counter("events");
  double gauge_value = 1.0;
  registry.gauge("gauge", [&gauge_value] { return gauge_value; });

  TimeSeriesSampler sampler(loop, registry, 10 * kMicrosecond, {0, 1});
  ASSERT_TRUE(sampler.enabled());
  sampler.start();
  EXPECT_TRUE(sampler.columns().empty());  // frozen only at first tick

  loop.schedule_at(15 * kMicrosecond, [&] {
    events.add(5);
    gauge_value = 3.0;
  });
  loop.run_until(35 * kMicrosecond);

  ASSERT_EQ(sampler.ticks(), 3u);
  ASSERT_EQ(sampler.columns().size(), 2u);
  EXPECT_EQ(sampler.columns()[0], "events");
  EXPECT_EQ(sampler.times()[0], 10 * kMicrosecond);
  EXPECT_EQ(sampler.times()[2], 30 * kMicrosecond);
  // First tick predates the mutation; later ticks see it.
  EXPECT_EQ(sampler.rows()[0][0], 0.0);
  EXPECT_EQ(sampler.rows()[0][1], 1.0);
  EXPECT_EQ(sampler.rows()[1][0], 5.0);
  EXPECT_EQ(sampler.rows()[1][1], 3.0);
}

TEST(SamplerTest, ZeroPeriodNeverSchedules) {
  EventLoop loop;
  Registry registry;
  TimeSeriesSampler sampler(loop, registry, 0, {});
  EXPECT_FALSE(sampler.enabled());
  sampler.start();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(SamplerDeathTest, LateRegistrationIsRejected) {
  EventLoop loop;
  Registry registry;
  registry.counter("early");
  TimeSeriesSampler sampler(loop, registry, kMicrosecond, {0});
  sampler.start();
  loop.run_until(2 * kMicrosecond);  // first tick freezes the column set
  registry.counter("late");
  EXPECT_DEATH(loop.run_until(4 * kMicrosecond), "registered before");
}

}  // namespace
}  // namespace hostsim::obs
