// Unit tests for the conservative sharded executor and its cross-shard
// channel.  Cluster-level bit-identity (serial vs sharded artifacts) is
// pinned separately in tests/core/shard_pinning_test.cpp; here the
// executor is exercised bare: window algebra, barrier-hook draining,
// heartbeat clamping, storm budget, delivery-key ordering, and tasks run
// on each shard's thread between rounds (for_each_shard).
#include "sim/sharded_executor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/contract.h"
#include "sim/event_loop.h"

namespace hostsim {
namespace {

TEST(ShardChannel, DrainsInPushOrderAndClears) {
  ShardChannel<int> channel;
  EXPECT_TRUE(channel.empty());
  channel.push(/*at=*/30, /*sent=*/20, /*sub=*/1, 7);
  channel.push(/*at=*/10, /*sent=*/5, /*sub=*/2, 8);
  std::vector<int> seen;
  channel.drain([&](ShardChannel<int>::Item& item) {
    seen.push_back(item.payload);
  });
  EXPECT_EQ(seen, (std::vector<int>{7, 8}));
  EXPECT_TRUE(channel.empty());
}

TEST(ShardedExecutor, SingleLoopDegeneratesToRunUntil) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(500, [&] { ++fired; });
  ShardedExecutor executor({&loop}, /*lookahead=*/1'000);
  executor.run_until(2'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 2'000);
  EXPECT_EQ(executor.now(), 2'000);
}

TEST(ShardedExecutor, AdvancesAllClocksToDeadline) {
  EventLoop a;
  EventLoop b;
  int fired = 0;
  a.schedule_at(100, [&] { ++fired; });
  b.schedule_at(7'500, [&] { ++fired; });
  ShardedExecutor executor({&a, &b}, /*lookahead=*/1'000);
  executor.run_until(10'000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(a.now(), 10'000);
  EXPECT_EQ(b.now(), 10'000);
}

// Cross-shard ping-pong through a channel drained at the barrier: each
// hop parks a frame in the channel; the hook schedules it into the peer
// loop at send + lookahead.  The executor must keep making progress
// (every hop spans a round boundary) and deliver at exact times.
TEST(ShardedExecutor, BarrierHookRelaysCrossShardDeliveries) {
  constexpr Nanos kLatency = 1'000;
  EventLoop a;
  EventLoop b;
  EventLoop* loops[] = {&a, &b};
  ShardChannel<int> to_b;
  ShardChannel<int> to_a;
  ShardedExecutor executor({&a, &b}, kLatency);

  std::vector<Nanos> arrivals;
  std::uint64_t sub = 0;
  // hop(payload) runs on loop `side`, records the arrival, and volleys
  // the payload back until it has crossed 6 times.
  std::function<void(int, int)> hop = [&](int side, int hops_left) {
    arrivals.push_back(loops[side]->now());
    if (hops_left == 0) return;
    ShardChannel<int>& out = side == 0 ? to_b : to_a;
    out.push(loops[side]->now() + kLatency, loops[side]->now(), sub++,
             hops_left - 1);
  };
  executor.set_barrier_hook([&] {
    to_b.drain([&](ShardChannel<int>::Item& item) {
      ASSERT_GT(item.at, executor.round_deadline());
      b.schedule_delivery(item.at, item.sent, item.sub,
                          [&hop, p = item.payload] { hop(1, p); });
    });
    to_a.drain([&](ShardChannel<int>::Item& item) {
      ASSERT_GT(item.at, executor.round_deadline());
      a.schedule_delivery(item.at, item.sent, item.sub,
                          [&hop, p = item.payload] { hop(0, p); });
    });
  });

  a.schedule_at(0, [&] { hop(0, 6); });
  executor.run_to_completion();
  ASSERT_EQ(arrivals.size(), 7u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], static_cast<Nanos>(i) * kLatency);
  }
}

// schedule_delivery keys rank cross-shard arrivals after local events at
// the same timestamp (a local event was keyed when *scheduled*, i.e. at
// an earlier now), and among themselves by (sent, sub) — independent of
// insertion order.
TEST(ShardedExecutor, DeliveryOrderingIsInsertionOrderIndependent) {
  EventLoop loop;
  std::vector<std::string> order;
  // Inserted "backwards": higher (sent, sub) first.
  loop.schedule_delivery(100, /*sent=*/90, /*sub=*/2,
                         [&] { order.push_back("sent90.sub2"); });
  loop.schedule_delivery(100, /*sent=*/90, /*sub=*/1,
                         [&] { order.push_back("sent90.sub1"); });
  loop.schedule_delivery(100, /*sent=*/50, /*sub=*/9,
                         [&] { order.push_back("sent50.sub9"); });
  loop.schedule_at(100, [&] { order.push_back("local"); });  // keyed at now=0
  loop.run_to_completion();
  EXPECT_EQ(order, (std::vector<std::string>{"local", "sent50.sub9",
                                             "sent90.sub1", "sent90.sub2"}));
}

TEST(ShardedExecutor, HeartbeatFiresAtEveryMultipleOfPeriod) {
  EventLoop a;
  EventLoop b;
  // Sparse events so naive windows would leap far past the tick times.
  a.schedule_at(9'800, [] {});
  b.schedule_at(21'000, [] {});
  ShardedExecutor executor({&a, &b}, /*lookahead=*/50'000);
  std::vector<Nanos> ticks;
  executor.set_heartbeat(10'000, [&](Nanos now) { ticks.push_back(now); });
  executor.run_until(30'000);
  EXPECT_EQ(ticks, (std::vector<Nanos>{10'000, 20'000, 30'000}));
}

TEST(ShardedExecutor, StormBudgetTripsOnFrozenClock) {
  ScopedContractMode mode(ContractMode::throwing);
  EventLoop a;
  EventLoop b;
  // A self-rescheduling zero-delay task: the clock never advances.
  std::function<void()> storm = [&] { a.schedule_after(0, storm); };
  a.schedule_at(100, storm);
  b.schedule_at(50, [] {});
  ShardedExecutor executor({&a, &b}, /*lookahead=*/1'000);
  executor.set_storm_budget(10'000);
  EXPECT_THROW(executor.run_until(1'000'000), ContractViolation);
}

// for_each_shard runs each shard's task on the thread that runs that
// shard's loop: shard 0 on the caller, every other shard on its worker.
TEST(ShardedExecutor, ForEachShardRunsOnEachShardsThread) {
  EventLoop a;
  EventLoop b;
  EventLoop c;
  EventLoop* loops[] = {&a, &b, &c};
  ShardedExecutor executor({&a, &b, &c}, /*lookahead=*/1'000);
  std::vector<std::thread::id> task_thread(3);
  std::vector<std::thread::id> loop_thread(3);
  executor.for_each_shard([&](int shard) {
    task_thread[static_cast<std::size_t>(shard)] = std::this_thread::get_id();
  });
  for (std::size_t s = 0; s < 3; ++s) {
    loops[s]->schedule_at(100, [&loop_thread, s] {
      loop_thread[s] = std::this_thread::get_id();
    });
  }
  executor.run_until(1'000);
  EXPECT_EQ(task_thread[0], std::this_thread::get_id());
  EXPECT_EQ(task_thread, loop_thread);
  EXPECT_NE(task_thread[1], task_thread[0]);
  EXPECT_NE(task_thread[2], task_thread[0]);
  EXPECT_NE(task_thread[2], task_thread[1]);
}

// Several shards throw: the lowest shard's exception reaches the caller,
// the rest are dropped, and the executor keeps running rounds and tasks.
TEST(ShardedExecutor, ForEachShardRethrowsTheLowestShardsException) {
  EventLoop a;
  EventLoop b;
  EventLoop c;
  ShardedExecutor executor({&a, &b, &c}, /*lookahead=*/1'000);
  try {
    executor.for_each_shard([](int shard) {
      if (shard >= 1) throw std::runtime_error("shard " + std::to_string(shard));
    });
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }
  int fired = 0;
  c.schedule_at(500, [&] { ++fired; });
  executor.run_until(1'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(c.now(), 1'000);
  std::vector<int> ran(3, 0);
  executor.for_each_shard(
      [&](int shard) { ++ran[static_cast<std::size_t>(shard)]; });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1}));
}

TEST(ShardedExecutor, ForEachShardRunsInlineOnOneShard) {
  EventLoop loop;
  ShardedExecutor executor({&loop}, /*lookahead=*/0);
  std::vector<int> shards;
  std::thread::id where;
  executor.for_each_shard([&](int shard) {
    shards.push_back(shard);
    where = std::this_thread::get_id();
  });
  EXPECT_EQ(shards, (std::vector<int>{0}));
  EXPECT_EQ(where, std::this_thread::get_id());
  EXPECT_THROW(executor.for_each_shard(
                   [](int) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

// Tasks between runs see every loop at the executor's clock and move no
// clock and no heartbeat; what a task schedules on its own loop runs in
// the next run_until at its time.
TEST(ShardedExecutor, ForEachShardInterleavesWithRunsWithoutMovingClocks) {
  EventLoop a;
  EventLoop b;
  EventLoop* loops[] = {&a, &b};
  ShardedExecutor executor({&a, &b}, /*lookahead=*/1'000);
  std::vector<Nanos> ticks;
  executor.set_heartbeat(1'000, [&](Nanos now) { ticks.push_back(now); });
  // One log per shard: both loops run at once inside a round.
  std::vector<std::string> fired[2];
  b.schedule_at(2'500, [&] { fired[1].push_back("b@2500"); });
  executor.run_until(1'000);
  EXPECT_EQ(ticks, (std::vector<Nanos>{1'000}));

  std::vector<Nanos> seen(2, -1);
  executor.for_each_shard([&](int shard) {
    EventLoop& loop = *loops[shard];
    seen[static_cast<std::size_t>(shard)] = loop.now();
    loop.schedule_at(1'200 + shard, [&fired, &loop, shard] {
      fired[shard].push_back("task" + std::to_string(shard) + "@" +
                             std::to_string(loop.now()));
    });
  });
  EXPECT_EQ(seen, (std::vector<Nanos>{1'000, 1'000}));
  EXPECT_EQ(executor.now(), 1'000);
  EXPECT_EQ(a.now(), 1'000);
  EXPECT_EQ(b.now(), 1'000);
  EXPECT_EQ(ticks, (std::vector<Nanos>{1'000}));
  EXPECT_TRUE(fired[0].empty() && fired[1].empty());

  executor.run_until(3'000);
  EXPECT_EQ(fired[0], (std::vector<std::string>{"task0@1200"}));
  EXPECT_EQ(fired[1], (std::vector<std::string>{"task1@1201", "b@2500"}));
  EXPECT_EQ(ticks, (std::vector<Nanos>{1'000, 2'000, 3'000}));
  executor.for_each_shard([](int) {});
  EXPECT_EQ(executor.now(), 3'000);
  EXPECT_EQ(a.now(), 3'000);
}

TEST(ShardedExecutor, RunToCompletionDrainsChainedWork) {
  EventLoop a;
  EventLoop b;
  int fired = 0;
  a.schedule_at(10, [&] {
    ++fired;
    a.schedule_after(5, [&] { ++fired; });
  });
  ShardedExecutor executor({&a, &b}, /*lookahead=*/1'000);
  executor.run_to_completion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(a.pending() + b.pending(), 0u);
}

}  // namespace
}  // namespace hostsim
