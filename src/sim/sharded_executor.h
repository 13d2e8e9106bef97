// Conservative parallel discrete-event execution over K event loops.
//
// A cluster run is split into K shards, each owning one EventLoop (and
// the hosts mapped onto it).  Shards only interact through fixed-latency
// links, so the classic conservative (CMB-style / SimBricks-style)
// argument applies: if every shard has executed all events up to time T,
// then no shard can receive a cross-shard delivery at or before
// T + lookahead, where lookahead is the minimum link propagation delay.
// The executor exploits this with barrier-synchronized rounds:
//
//   1. At a barrier (all workers quiesced) the registered barrier hook
//      drains every cross-shard channel, scheduling the parked
//      deliveries into the destination loops via schedule_delivery().
//   2. The orchestrator computes E = min over shards of next_event_at()
//      and opens the next window W = min(deadline, max(now+1,
//      E + lookahead - 1)).  Any event executed inside the round fires
//      at some t >= E, so a frame it emits arrives no earlier than
//      t + lookahead >= E + lookahead > W — strictly beyond the window,
//      which is what makes the round race-free.
//   3. Every shard runs its loop to W in parallel (the orchestrator
//      runs shard 0 itself); the barrier repeats.
//
// Determinism does not depend on round boundaries: cross-shard events
// are keyed by (delivery time, send time, channel subkey) — a pure
// function of simulated history — so any window placement yields the
// same execution order (see EventLoop::schedule_delivery).
//
// ShardChannel is the cross-shard mailbox: written only by its owning
// source shard's worker during a round, drained only by the
// orchestrator at a barrier.  The barrier's mutex/condvar handoff
// provides the happens-before edges, so no per-push locking is needed.
#ifndef HOSTSIM_SIM_SHARDED_EXECUTOR_H
#define HOSTSIM_SIM_SHARDED_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/contract.h"
#include "sim/event_loop.h"
#include "sim/units.h"

namespace hostsim {

/// Single-producer mailbox for payloads crossing a shard boundary.
/// push() is called by the source shard's worker during a round;
/// drain() only by the orchestrator at a barrier.  The (sent, sub) pair
/// carries the deterministic ordering key for schedule_delivery().
template <class T>
class ShardChannel {
 public:
  struct Item {
    Nanos at;           ///< delivery time at the destination shard
    Nanos sent;         ///< sender-side timestamp (ordering key)
    std::uint64_t sub;  ///< stable per-channel subkey (ordering key)
    T payload;
  };

  void push(Nanos at, Nanos sent, std::uint64_t sub, T payload) {
    items_.push_back(Item{at, sent, sub, std::move(payload)});
  }

  bool empty() const { return items_.empty(); }

  /// Hands every parked item to `deliver` in push order and clears.
  template <class F>
  void drain(F&& deliver) {
    for (Item& item : items_) deliver(item);
    items_.clear();
  }

 private:
  std::vector<Item> items_;
};

/// Runs K shard loops in conservative barrier-synchronized rounds: the
/// calling thread runs shard 0 and one worker thread runs each other
/// shard.  A serial run is the K = 1 case: no thread is spawned, there
/// is no cross-shard link to bound a round, so each round runs to the
/// deadline (or until idle) and is split only at heartbeat ticks.
class ShardedExecutor {
 public:
  /// `lookahead` is the minimum cross-shard link latency (> 0 with more
  /// than one loop; a single loop accepts 0).
  ShardedExecutor(std::vector<EventLoop*> loops, Nanos lookahead);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Hook invoked at every barrier while all workers are quiesced; the
  /// owner drains its cross-shard channels into the loops here.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Periodic orchestrator-side callback at multiples of `period`
  /// (watchdog polling).  Round windows are clamped so no tick is
  /// skipped.  Period 0 disables.
  void set_heartbeat(Nanos period, std::function<void(Nanos)> tick) {
    heartbeat_period_ = tick ? period : 0;
    heartbeat_ = std::move(tick);
  }

  /// Per-shard zero-delay-storm guard: a shard that executes about
  /// `budget` events without its clock advancing stops its round, and
  /// `on_storm` receives an "event-loop livelock" diagnostic on the
  /// calling thread; the run call then returns early.  Without a handler
  /// the storm is a postcondition failure.  Budget 0 disables.
  void set_storm_budget(
      std::uint64_t budget,
      std::function<void(const std::string&)> on_storm = {});

  /// Orchestrator clock: every loop has fully executed up to here.
  Nanos now() const { return now_; }

  /// Deadline of the round currently executing (channel pushes must
  /// land strictly beyond it — validated by the owner's push path).
  Nanos round_deadline() const { return round_deadline_; }

  /// Runs all shards to `deadline` and advances every clock to it.
  void run_until(Nanos deadline);

  /// Runs until every loop is idle and every channel is drained.
  void run_to_completion();

  /// Runs `task(s)` once for every shard s, on the thread that runs s's
  /// rounds (shard 0 on the calling thread), between rounds: it moves no
  /// clock.  Rethrows the lowest failing shard's exception.
  using ShardTask = std::function<void(int shard)>;
  void for_each_shard(const ShardTask& task);

 private:
  struct StormState {
    Nanos last_now = -1;
    int frozen_calls = 0;
  };

  /// Minimum pending-event time across loops (after a channel drain).
  Nanos min_next_event() const;
  /// Latest instant the next round may run to: the conservative
  /// lookahead window, or kNoEvent (no bound) for a single shard.
  Nanos horizon() const;
  /// Drains channels via the barrier hook; workers must be quiesced.
  void barrier();
  /// Executes one round to `window` (kNoEvent: until idle), fires the
  /// heartbeat when it lands on a tick, and rethrows any shard exception
  /// (lowest shard index first, for determinism).  Returns false when
  /// the storm guard tripped, which ends the run call.
  bool execute_round(Nanos window);
  /// Clamps `window` so the next heartbeat tick is not skipped.
  Nanos clamp_to_heartbeat(Nanos window) const;
  /// Hands every worker one round (`task` on each shard, or with no task
  /// each loop run to `window`), runs shard 0 here, waits for all, and
  /// returns the lowest shard's exception (null if none).
  std::exception_ptr run_round(Nanos window, const ShardTask* task);
  /// Runs `shard`'s part of a round, parking any exception in errors_.
  void run_shard(std::size_t shard, Nanos window, const ShardTask* task);
  void worker_main(std::size_t shard);

  std::vector<EventLoop*> loops_;
  Nanos lookahead_;
  Nanos now_ = 0;
  Nanos round_deadline_ = 0;
  std::function<void()> barrier_hook_;
  Nanos heartbeat_period_ = 0;
  std::function<void(Nanos)> heartbeat_;
  std::vector<StormState> storm_;
  std::function<void(const std::string&)> on_storm_;

  // Round barrier: the calling thread runs shard 0 itself and worker i
  // runs shard i + 1.  Workers wait for round_ to advance, run round_task_
  // or their loop to round_deadline_, then count pending_ down; only the
  // last one wakes the calling thread.  Fields below are guarded by mu_.
  std::mutex mu_;
  std::condition_variable round_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;
  const ShardTask* round_task_ = nullptr;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_SHARDED_EXECUTOR_H
