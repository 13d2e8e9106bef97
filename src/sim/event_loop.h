// Discrete-event simulation engine.
//
// Events are executed in nondecreasing timestamp order; ties are broken
// by insertion order, which makes every run fully deterministic for a
// given (configuration, seed) pair.
//
// Internals (see DESIGN.md, "Engine internals & performance"): the queue
// is an indexed 4-ary heap of 32-byte POD entries, and every event goes
// through it, zero-delay ones included.  Actions live in a slot pool off
// to the side, so sift operations never move a callable; each slot keeps
// a back-pointer into the heap, which makes cancel() a true O(log n)
// removal and pending() an exact live count.  Actions are InlineFunction
// rather than std::function, so the common capture shapes (a `this`
// pointer plus a few scalars) never touch the heap.  Frames in flight
// wait in per-hop EventFifos (sim/event_fifo.h): one heap entry per hop.
#ifndef HOSTSIM_SIM_EVENT_LOOP_H
#define HOSTSIM_SIM_EVENT_LOOP_H

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/pool.h"
#include "sim/inline_function.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace hostsim {

/// Identifier of a scheduled event, usable for cancellation: a
/// (generation, slot) pair, so a stale id (fired or already cancelled)
/// stays recognizably stale and cancelling it is a no-op.
using EventId = std::uint64_t;

/// Time-ordered event queue with deterministic tie-breaking.
class EventLoop {
 public:
  using Action = InlineFunction<void()>;

  explicit EventLoop(std::uint64_t seed = 1) : rng_(seed) {}

  /// Current simulated time.
  Nanos now() const { return now_; }

  /// Schedules `action` at absolute time `at` (>= now). Returns its id.
  EventId schedule_at(Nanos at, Action action);

  /// Schedules `action` after a relative delay (>= 0). Returns its id.
  EventId schedule_after(Nanos delay, Action action);

  /// Schedules a cross-shard delivery at strictly-future time `at`.
  /// Ordering among concurrent events is keyed by (`sent`, `sub`) — the
  /// sending shard's timestamp plus a stable per-channel subkey — rather
  /// than by local insertion order, which depends on thread interleaving.
  /// At equal (at, sent) a delivery ranks after every locally scheduled
  /// event, giving one canonical order regardless of shard count.
  EventId schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                            Action action);

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  /// Runs all events with timestamp <= `deadline` and advances the clock
  /// to `deadline`.
  void run_until(Nanos deadline);

  /// Drains the queue completely (useful in unit tests).
  void run_to_completion();

  /// Exact number of live queued events, EventFifo items parked behind
  /// their FIFO's head included.  Cancelled events are removed eagerly
  /// and never counted.
  std::size_t pending() const { return heap_.size() + parked_; }

  /// Timestamp of the earliest pending event, or kNoEvent when idle.
  /// Used by the sharded executor's conservative horizon computation.
  static constexpr Nanos kNoEvent = ~(Nanos{1} << 63);  // max int64
  Nanos next_event_at() const {
    return heap_.empty() ? kNoEvent : heap_[0].key.at;
  }

  /// Total number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Watchdog hook: invoked after every `every_events` executed events
  /// (livelock detection — a zero-delay event storm never yields to
  /// time-scheduled checks, but it does keep executing events).  Pass
  /// `every_events == 0` or an empty hook to detach.
  using WatchdogHook = std::function<void(EventLoop&)>;
  void set_watchdog(std::uint64_t every_events, WatchdogHook hook) {
    watchdog_every_ = hook ? every_events : 0;
    watchdog_hook_ = std::move(hook);
  }

  /// Root random stream for this run.
  Rng& rng() { return rng_; }

 private:
  // Cancellation is the RAII handles' primitive, not a public API:
  // component code owns a sim/timer.h Timer (auto-cancel on destruction,
  // rearm()) or TimerHandle instead of carrying raw EventIds around.
  friend class Timer;
  friend class TimerHandle;
  template <class T>
  friend class EventFifo;

  /// Cancels a previously scheduled event: an O(log n) removal from the
  /// queue.  Cancelling an event that has already fired (or was already
  /// cancelled) is a harmless no-op.
  void cancel(EventId id);

  using Slot = SlotPool<Action>::Slot;

  /// An event's ordering key.  Ties within `at` break on a composite
  /// (hi, lo) key.  For locally scheduled events hi is the scheduling
  /// time and lo the insertion sequence; since the sequence is monotone
  /// with the clock, (at, sched_time, seq) orders exactly like the
  /// historical (at, seq) — serial runs are bit-identical to the old
  /// engine.  An event scheduled at `now()` gets hi == at, so it fires
  /// after every entry queued before the clock reached `at`.  For
  /// cross-shard deliveries hi is the *sender's* timestamp and lo a
  /// tagged per-channel subkey, making the tie-break a pure function of
  /// simulated history instead of thread interleaving.
  struct Key {
    Nanos at;
    std::uint64_t hi;
    std::uint64_t lo;
  };

  /// One heap element.  Deliberately small and trivially copyable —
  /// sift operations shuffle these, never the actions themselves.
  struct HeapEntry {
    Key key;
    Slot slot;
  };

  static constexpr std::uint32_t kArity = 4;
  /// Key::lo tag marking cross-shard deliveries (ranks after local
  /// events with the same (at, hi)).
  static constexpr std::uint64_t kDeliveryBit = std::uint64_t{1} << 63;

  static bool before(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }

  EventId make_id(Slot slot) const {
    // Aliasing would need one slot to be reused 2^32 times while a stale
    // id is still held.
    return (static_cast<EventId>(gen_[slot]) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// The key schedule_delivery() gives a delivery (validated).
  Key delivery_key(Nanos at, Nanos sent, std::uint64_t sub) const;
  /// Inserts a heap entry with an explicit key.
  EventId push_heap(const Key& key, Action action);
  /// Executes the heap event in `slot` at simulated time `at`.
  void fire(Slot slot, Nanos at);
  void sift_up(std::uint32_t pos);
  std::uint32_t sift_down(std::uint32_t pos);
  /// Removes the entry at heap position `pos`, restoring heap order.
  void remove_at(std::uint32_t pos);
  /// Recycles `slot` and bumps its generation, invalidating its id.
  void release_slot(Slot slot);

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  SlotPool<Action> actions_;
  std::vector<std::uint32_t> gen_;       // by slot; survives slot reuse
  std::vector<std::uint32_t> heap_pos_;  // by slot; valid while live
  std::size_t parked_ = 0;  // EventFifo items behind their FIFO's head
  std::uint64_t watchdog_every_ = 0;
  WatchdogHook watchdog_hook_;
  Rng rng_;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_EVENT_LOOP_H
