// Ordered FIFO of timestamped items behind one event-loop entry.
//
// A hop whose items' ordering keys never decrease (a link direction, a
// switch port's serialize or propagate stage, one uplink's deliveries
// into one shard) keeps only its head in the loop's heap.  Each item
// keeps the key its own event would have had — schedule_at()'s (at, now,
// seq), seq taken at push time, or schedule_delivery()'s (at, sent, sub)
// — and the next head enters the heap under it, so execution order,
// executed() and pending() (which counts parked items) are those of one
// event per item.  The items wait in a Ring (mem/ring.h).  SimBricks
// queues a channel's messages the same way.
#ifndef HOSTSIM_SIM_EVENT_FIFO_H
#define HOSTSIM_SIM_EVENT_FIFO_H

#include <cstdint>
#include <utility>

#include "mem/ring.h"
#include "sim/contract.h"
#include "sim/event_loop.h"

namespace hostsim {

/// FIFO of items of type T (default-constructible and movable).
template <class T>
class EventFifo {
 public:
  using Handler = InlineFunction<void(T&)>;  ///< receives each fired item

  EventFifo() = default;
  EventFifo(const EventFifo&) = delete;  // queued events capture `this`
  EventFifo& operator=(const EventFifo&) = delete;

  /// Sets the loop the items fire on (only while empty) and the handler.
  void bind(EventLoop& loop, Handler handler) {
    require(ring_.empty(), "an event FIFO changes loops only while empty");
    loop_ = &loop;
    handler_ = std::move(handler);
  }

  /// Queues `item` for `at` (>= now) as schedule_at() would order its
  /// own event.
  void push_at(Nanos at, T item) {
    require(at >= loop_->now(), "cannot schedule events in the past");
    enqueue({at, static_cast<std::uint64_t>(loop_->now()),
             loop_->next_seq_++},
            std::move(item));
  }

  /// Queues `item` as schedule_delivery() would order its own event.
  void push_delivery(Nanos at, Nanos sent, std::uint64_t sub, T item) {
    enqueue(loop_->delivery_key(at, sent, sub), std::move(item));
  }

  /// Items queued under a key: the armed head plus the parked ones.
  std::size_t size() const { return ring_.size(); }

 private:
  struct Keyed {
    EventLoop::Key key;
    T item;
  };

  void enqueue(const EventLoop::Key& key, T item) {
    require(ring_.empty() || !EventLoop::before(key, ring_.back().key),
            "event FIFO keys must not decrease");
    ring_.push_back(Keyed{key, std::move(item)});
    if (ring_.size() > 1) {
      ++loop_->parked_;
    } else {
      arm_head();
    }
  }

  // The head leaves the ring before the handler runs, so the handler may
  // push onto this FIFO again.
  void arm_head() {
    loop_->push_heap(ring_.front().key, [this] {
      Keyed head = ring_.pop_front();
      if (!ring_.empty()) {
        --loop_->parked_;
        arm_head();
      }
      handler_(head.item);
    });
  }

  EventLoop* loop_ = nullptr;
  Handler handler_;
  Ring<Keyed> ring_;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_EVENT_FIFO_H
