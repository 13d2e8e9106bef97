#include "sim/event_loop.h"

#include "sim/timer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hostsim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.executed(), 3u);
}

TEST(EventLoopTest, TieBreaksByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoopTest, ClockAdvancesToEventTime) {
  EventLoop loop;
  Nanos seen = -1;
  loop.schedule_after(42, [&] { seen = loop.now(); });
  loop.run_to_completion();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(loop.now(), 42);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  loop.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 20);
  loop.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(1, recurse);
  };
  loop.schedule_after(0, recurse);
  loop.run_to_completion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 4);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(5, [&] { ++fired; });
  TimerHandle(loop, id).cancel();
  loop.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelledHeadDoesNotLeakPastDeadline) {
  // Regression guard: run_until must not execute a post-deadline event
  // just because the pre-deadline head of the queue was cancelled.
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(50, [&] { ++fired; });
  TimerHandle(loop, id).cancel();
  loop.run_until(20);
  EXPECT_EQ(fired, 0);
  loop.run_until(60);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelIsIdempotentAndSafeForFiredEvents) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(1, [&] { ++fired; });
  loop.run_to_completion();
  TimerHandle(loop, id).cancel();  // already fired: harmless
  TimerHandle(loop, id).cancel();
  loop.schedule_at(loop.now() + 1, [&] { ++fired; });
  loop.run_to_completion();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PendingCountsQueuedEvents) {
  EventLoop loop;
  EXPECT_EQ(loop.pending(), 0u);
  loop.schedule_at(1, [] {});
  loop.schedule_at(2, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.run_to_completion();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, CancelRemovesFromPendingImmediately) {
  // pending() is exact: a cancelled event leaves the queue on the spot
  // rather than lingering as a tombstone until its deadline.
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(loop.schedule_at(10 + i, [] {}));
  }
  EXPECT_EQ(loop.pending(), 8u);
  TimerHandle(loop, ids[3]).cancel();
  TimerHandle(loop, ids[0]).cancel();  // heap front
  TimerHandle(loop, ids[7]).cancel();
  EXPECT_EQ(loop.pending(), 5u);
  loop.run_to_completion();
  EXPECT_EQ(loop.executed(), 5u);
}

TEST(EventLoopTest, CancelFrontThenMiddleKeepsOrder) {
  EventLoop loop;
  std::vector<int> order;
  const EventId front = loop.schedule_at(1, [&] { order.push_back(1); });
  loop.schedule_at(2, [&] { order.push_back(2); });
  const EventId mid = loop.schedule_at(3, [&] { order.push_back(3); });
  loop.schedule_at(4, [&] { order.push_back(4); });
  loop.schedule_at(5, [&] { order.push_back(5); });
  TimerHandle(loop, front).cancel();
  TimerHandle(loop, mid).cancel();
  loop.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 5}));
}

TEST(EventLoopTest, CancelImmediateEvent) {
  // Cancelling an event scheduled at exactly now() must work and keep
  // pending() exact.
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(5, [&] {
    const EventId doomed = loop.schedule_at(loop.now(), [&] { ++fired; });
    loop.schedule_at(loop.now(), [&] { ++fired; });
    EXPECT_EQ(loop.pending(), 2u);
    TimerHandle(loop, doomed).cancel();
    EXPECT_EQ(loop.pending(), 1u);
  });
  loop.run_to_completion();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, SelfCancelDuringFireIsHarmless) {
  // A callback cancelling its own id (e.g. a Timer being disarmed from
  // inside its trampoline) must be a no-op, not corruption.
  EventLoop loop;
  int fired = 0;
  EventId self = 0;
  self = loop.schedule_at(10, [&] {
    ++fired;
    TimerHandle(loop, self).cancel();
  });
  loop.schedule_at(10, [&] { ++fired; });
  loop.run_to_completion();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, MixedHeapAndImmediateOrdering) {
  // During processing at time T, heap events already queued for T fire
  // before any event newly scheduled at T (which by construction has a
  // larger insertion sequence) — global (time, insertion) order holds.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] {
    order.push_back(0);
    loop.schedule_at(10, [&] { order.push_back(3); });
    loop.schedule_at(10, [&] {
      order.push_back(4);
      loop.schedule_at(10, [&] { order.push_back(5); });
    });
  });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(10, [&] { order.push_back(2); });
  loop.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventLoopTest, SamplerTickFiresAfterZeroDelayEvents) {
  // The obs sampler keys its tick (at, sent = at, 1 << 62) so that it
  // reads state after every datapath event at that instant, including
  // one scheduled at the instant itself.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_delivery(10, 10, std::uint64_t{1} << 62,
                         [&] { order.push_back(2); });
  loop.schedule_at(10, [&] {
    order.push_back(0);
    loop.schedule_at(loop.now(), [&] { order.push_back(1); });
  });
  loop.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopTest, DeterministicUnderScheduleCancelChurn) {
  // Two loops driven through an identical schedule/cancel script must
  // fire the surviving events in the same order — slot recycling inside
  // the queue must never leak into execution order.
  auto run = [] {
    EventLoop loop;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const Nanos at = 100 + (i * 37) % 50;
      ids.push_back(loop.schedule_at(at, [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 200; i += 3) {
      TimerHandle(loop, ids[static_cast<std::size_t>(i)]).cancel();
    }
    for (int i = 0; i < 100; ++i) {
      const Nanos at = 120 + (i * 11) % 40;
      loop.schedule_at(at, [&order, i] { order.push_back(1000 + i); });
    }
    loop.run_to_completion();
    return order;
  };
  const std::vector<int> first = run();
  const std::vector<int> second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 200u - 67u + 100u);
}

TEST(EventLoopTest, SlotReuseAfterFireKeepsCancelSafe) {
  // After an event fires, its internal slot is recycled; a stale cancel
  // of the fired id must not kill whichever event inherited the slot.
  EventLoop loop;
  int fired = 0;
  const EventId old_id = loop.schedule_at(1, [&] { ++fired; });
  loop.run_to_completion();
  loop.schedule_at(loop.now() + 1, [&] { ++fired; });  // likely reuses slot
  TimerHandle(loop, old_id).cancel();                                 // stale: must be no-op
  loop.run_to_completion();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace hostsim
