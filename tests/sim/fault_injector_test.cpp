#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <vector>

namespace hostsim {
namespace {

// Host uplinks of the back-to-back testbed: both hosts share link 0.
const std::vector<int> kBackToBack = {0, 0};

// Drives `frames` frames through link 0, direction 0 and tallies outcomes.
struct LossTally {
  int drops = 0;
  int delivered = 0;
  int drop_after_drop = 0;  // drops whose previous frame also dropped
  int frames_after_drop = 0;
};

LossTally drive(FaultInjector& injector, int frames) {
  LossTally tally;
  bool prev_dropped = false;
  for (int i = 0; i < frames; ++i) {
    const auto fault = injector.on_frame(/*link=*/0, /*direction=*/0);
    const bool dropped = fault == FaultInjector::WireFault::drop_random ||
                         fault == FaultInjector::WireFault::drop_bursty;
    if (prev_dropped) {
      ++tally.frames_after_drop;
      if (dropped) ++tally.drop_after_drop;
    }
    if (dropped) ++tally.drops;
    else ++tally.delivered;
    prev_dropped = dropped;
  }
  return tally;
}

TEST(GilbertElliottTest, MatchedAverageConstructionHitsTargetRate) {
  const double target = 1e-2;
  FaultPlan plan;
  plan.gilbert_elliott = GilbertElliottConfig::for_average_loss(target);
  ASSERT_TRUE(plan.gilbert_elliott.enabled);

  EventLoop loop(7);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);
  const int frames = 2'000'000;
  const LossTally tally = drive(injector, frames);
  const double observed = static_cast<double>(tally.drops) / frames;
  EXPECT_NEAR(observed, target, target * 0.2);
}

TEST(GilbertElliottTest, LossIsBursty) {
  // At matched average rate, the conditional drop probability right
  // after a drop must far exceed the marginal: that is the entire point
  // of the two-state model.
  const double target = 1e-3;
  FaultPlan plan;
  plan.gilbert_elliott = GilbertElliottConfig::for_average_loss(target);

  EventLoop loop(11);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);
  const LossTally tally = drive(injector, 4'000'000);
  ASSERT_GT(tally.frames_after_drop, 100);
  const double marginal = static_cast<double>(tally.drops) / 4'000'000;
  const double conditional = static_cast<double>(tally.drop_after_drop) /
                             tally.frames_after_drop;
  // Bad state persists with p ~ 0.9 and drops with p = 0.5, so the
  // conditional rate should be ~0.45 vs a ~1e-3 marginal.
  EXPECT_GT(conditional, 50 * marginal);
  EXPECT_GT(injector.counters().bursty_drops, 0u);
}

TEST(FaultInjectorTest, SameSeedSameFaults) {
  FaultPlan plan;
  plan.gilbert_elliott = GilbertElliottConfig::for_average_loss(5e-3);
  plan.corrupt_rate = 1e-3;

  std::vector<FaultInjector::WireFault> first, second;
  for (auto* out : {&first, &second}) {
    EventLoop loop(42);
    FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                           /*count_global_windows=*/true);
    for (int i = 0; i < 100'000; ++i) {
      out->push_back(injector.on_frame(/*link=*/0, /*direction=*/i % 2));
    }
  }
  EXPECT_EQ(first, second);
}

// Every link draws from its own stream and runs its own GE chains, and
// a host's pool draws come from its uplink's stream: frames on link 1
// and host 1's allocations leave every outcome on link 0 and host 0 as
// it was.
TEST(FaultInjectorTest, LinksDrawFromTheirOwnStreams) {
  FaultPlan plan;
  plan.gilbert_elliott = GilbertElliottConfig::for_average_loss(2e-2);
  plan.corrupt_rate = 1e-2;
  plan.pool_pressure.push_back({0, kSecond, /*deny_prob=*/0.5});

  std::vector<int> alone, beside;
  for (const bool busy_neighbour : {false, true}) {
    EventLoop loop(42);
    FaultInjector injector(loop, plan, loop.rng().fork(),
                           /*host_uplinks=*/{0, 1},
                           /*count_global_windows=*/true);
    loop.run_until(1);  // opens the pressure window
    std::vector<int>& out = busy_neighbour ? beside : alone;
    for (int i = 0; i < 20'000; ++i) {
      if (busy_neighbour) {
        injector.on_frame(/*link=*/1, /*direction=*/i % 2);
        injector.pool_alloc_allowed(/*host=*/1);
      }
      out.push_back(static_cast<int>(
          injector.on_frame(/*link=*/0, /*direction=*/i % 2)));
      out.push_back(injector.pool_alloc_allowed(/*host=*/0) ? 1 : 0);
    }
    const FaultCounters& counters = injector.counters();
    EXPECT_GT(counters.bursty_drops, 0u);
    EXPECT_GT(counters.corrupt_frames, 0u);
    EXPECT_GT(counters.pool_denials, 0u);
  }
  EXPECT_EQ(alone, beside);
}

TEST(FaultInjectorTest, LinkFlapWindowDropsEverything) {
  FaultPlan plan;
  plan.link_flaps.push_back({1000, 500});

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);

  EXPECT_TRUE(injector.link_up(0));
  loop.run_until(1200);  // inside the outage
  EXPECT_FALSE(injector.link_up(0));
  EXPECT_EQ(injector.on_frame(/*link=*/0, /*direction=*/0),
            FaultInjector::WireFault::drop_flap);
  loop.run_until(2000);  // after it
  EXPECT_TRUE(injector.link_up(0));
  EXPECT_EQ(injector.on_frame(/*link=*/0, /*direction=*/0),
            FaultInjector::WireFault::none);
  EXPECT_EQ(injector.counters().flaps, 1u);
  EXPECT_EQ(injector.counters().flap_drops, 1u);
}

TEST(FaultInjectorTest, RingStallTargetsTheRightQueue) {
  FaultPlan plan;
  plan.ring_stalls.push_back({1000, 500, /*queue=*/2});
  plan.ring_stalls.push_back({3000, 500, /*queue=*/-1});

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);

  EXPECT_FALSE(injector.ring_stalled(/*host=*/1, /*queue=*/2));
  loop.run_until(1200);
  EXPECT_TRUE(injector.ring_stalled(/*host=*/1, /*queue=*/2));
  EXPECT_FALSE(injector.ring_stalled(/*host=*/1, /*queue=*/0));  // only 2
  loop.run_until(2000);
  EXPECT_FALSE(injector.ring_stalled(/*host=*/1, /*queue=*/2));
  loop.run_until(3200);  // queue==-1 stalls every queue
  EXPECT_TRUE(injector.ring_stalled(/*host=*/1, /*queue=*/0));
  EXPECT_TRUE(injector.ring_stalled(/*host=*/1, /*queue=*/2));
  loop.run_until(4000);
  EXPECT_FALSE(injector.ring_stalled(/*host=*/1, /*queue=*/0));
}

TEST(FaultInjectorTest, TargetedLinkFlapDownsOnlyThatLink) {
  FaultPlan plan;
  plan.link_flaps.push_back({1000, 500, /*link=*/2});

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(),
                         /*host_uplinks=*/{0, 1, 2},
                         /*count_global_windows=*/true);

  EXPECT_TRUE(injector.link_up(2));
  loop.run_until(1200);  // inside the outage
  EXPECT_FALSE(injector.link_up(2));
  EXPECT_TRUE(injector.link_up(0));  // other links stay up
  EXPECT_TRUE(injector.link_up(1));
  EXPECT_EQ(injector.on_frame(/*link=*/2, /*direction=*/0),
            FaultInjector::WireFault::drop_flap);
  EXPECT_EQ(injector.on_frame(/*link=*/0, /*direction=*/0),
            FaultInjector::WireFault::none);
  loop.run_until(2000);
  EXPECT_TRUE(injector.link_up(2));
  EXPECT_EQ(injector.counters().flaps, 1u);
  EXPECT_EQ(injector.counters().flap_drops, 1u);
}

TEST(FaultInjectorTest, OverlappingTargetedAndGlobalFlapsNest) {
  FaultPlan plan;
  plan.link_flaps.push_back({1000, 2000, /*link=*/1});
  plan.link_flaps.push_back({1500, 500});  // global (link = -1)

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(),
                         /*host_uplinks=*/{0, 1},
                         /*count_global_windows=*/true);

  loop.run_until(1200);  // only the targeted flap is open
  EXPECT_FALSE(injector.link_up(1));
  EXPECT_TRUE(injector.link_up(0));
  loop.run_until(1700);  // global window downs everything
  EXPECT_FALSE(injector.link_up(0));
  EXPECT_FALSE(injector.link_up(1));
  loop.run_until(2200);  // global closed, targeted still open
  EXPECT_TRUE(injector.link_up(0));
  EXPECT_FALSE(injector.link_up(1));
  loop.run_until(4000);
  EXPECT_TRUE(injector.link_up(1));
  EXPECT_EQ(injector.counters().flaps, 2u);
}

TEST(FaultInjectorTest, RingStallTargetsTheRightHost) {
  FaultPlan plan;
  plan.ring_stalls.push_back({1000, 500, /*queue=*/-1, /*host=*/3});

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(),
                         /*host_uplinks=*/{0, 1, 2, 3},
                         /*count_global_windows=*/true);

  loop.run_until(1200);
  EXPECT_TRUE(injector.ring_stalled(/*host=*/3, /*queue=*/0));
  EXPECT_TRUE(injector.ring_stalled(/*host=*/3, /*queue=*/5));
  EXPECT_FALSE(injector.ring_stalled(/*host=*/0, /*queue=*/0));
  loop.run_until(2000);
  EXPECT_FALSE(injector.ring_stalled(/*host=*/3, /*queue=*/0));
}

TEST(FaultInjectorTest, PoolPressureWindowDeniesAllocations) {
  FaultPlan plan;
  plan.pool_pressure.push_back({1000, 500, /*deny_prob=*/1.0});

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);

  EXPECT_TRUE(injector.pool_alloc_allowed(/*host=*/1));
  loop.run_until(1200);
  EXPECT_FALSE(injector.pool_alloc_allowed(/*host=*/1));
  EXPECT_GT(injector.counters().pool_denials, 0u);
  loop.run_until(2000);
  EXPECT_TRUE(injector.pool_alloc_allowed(/*host=*/1));
}

TEST(FaultInjectorTest, EmptyPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any());

  EventLoop loop(1);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(injector.on_frame(/*link=*/0, /*direction=*/i % 2),
              FaultInjector::WireFault::none);
  }
  EXPECT_TRUE(injector.pool_alloc_allowed(/*host=*/0));
  EXPECT_FALSE(injector.ring_stalled(/*host=*/1, /*queue=*/0));
  EXPECT_EQ(injector.counters().wire_faults(), 0u);
}

TEST(FaultInjectorTest, CorruptionDeliversFlagged) {
  FaultPlan plan;
  plan.corrupt_rate = 0.5;

  EventLoop loop(3);
  FaultInjector injector(loop, plan, loop.rng().fork(), kBackToBack,
                         /*count_global_windows=*/true);
  int corrupt = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (injector.on_frame(/*link=*/0, /*direction=*/0) ==
        FaultInjector::WireFault::corrupt) {
      ++corrupt;
    }
  }
  EXPECT_NEAR(corrupt, 5000, 500);
  EXPECT_EQ(injector.counters().corrupt_frames,
            static_cast<std::uint64_t>(corrupt));
}

}  // namespace
}  // namespace hostsim
