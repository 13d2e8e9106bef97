// Ordered FIFO of timestamped items behind one event-loop entry.
//
// A hop whose items' ordering keys never decrease (a link direction, a
// switch port's serialize or propagate stage, one uplink's deliveries
// into one shard) keeps only its head in the loop's heap.  Each item
// keeps the key its own event would have had — schedule_at()'s (at, now,
// seq), seq taken at push time, or schedule_delivery()'s (at, sent, sub)
// — and the next head enters the heap under it, so execution order,
// executed() and pending() (which counts parked items) are those of one
// event per item.  SimBricks queues a channel's messages the same way.
#ifndef HOSTSIM_SIM_EVENT_FIFO_H
#define HOSTSIM_SIM_EVENT_FIFO_H

#include <cstdint>
#include <utility>
#include <vector>

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
    require(size_ == 0, "an event FIFO changes loops only while empty");
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
  std::size_t size() const { return size_; }

 private:
  struct Keyed {
    EventLoop::Key key;
    T item;
  };

  Keyed& slot(std::size_t i) {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  void enqueue(const EventLoop::Key& key, T item) {
    require(size_ == 0 || !EventLoop::before(key, slot(size_ - 1).key),
            "event FIFO keys must not decrease");
    if (size_ == ring_.size()) {  // double the ring, oldest item first
      std::vector<Keyed> bigger(size_ == 0 ? 8 : 2 * size_);
      for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(slot(i));
      ring_ = std::move(bigger);
      head_ = 0;
    }
    slot(size_++) = Keyed{key, std::move(item)};
    if (size_ > 1) {
      ++loop_->parked_;
    } else {
      arm_head();
    }
  }

  // The head leaves the ring before the handler runs, so the handler may
  // push onto this FIFO again.
  void arm_head() {
    loop_->push_heap(ring_[head_].key, [this] {
      Keyed head = std::move(ring_[head_]);
      head_ = (head_ + 1) & (ring_.size() - 1);
      if (--size_ > 0) {
        --loop_->parked_;
        arm_head();
      }
      handler_(head.item);
    });
  }

  EventLoop* loop_ = nullptr;
  Handler handler_;
  std::vector<Keyed> ring_;  ///< power-of-two capacity; grows, never shrinks
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_EVENT_FIFO_H
