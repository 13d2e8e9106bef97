#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"

namespace hostsim {

EventId EventLoop::schedule_at(Nanos at, Action action) {
  require(at >= now_, "cannot schedule events in the past");
  require(static_cast<bool>(action), "event action must be callable");
  return push_heap({at, static_cast<std::uint64_t>(now_), next_seq_++},
                   std::move(action));
}

EventId EventLoop::schedule_after(Nanos delay, Action action) {
  require(delay >= 0, "event delay must be nonnegative");
  return schedule_at(now_ + delay, std::move(action));
}

EventId EventLoop::schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                                     Action action) {
  require(static_cast<bool>(action), "event action must be callable");
  return push_heap(delivery_key(at, sent, sub), std::move(action));
}

EventLoop::Key EventLoop::delivery_key(Nanos at, Nanos sent,
                                       std::uint64_t sub) const {
  require(at > now_, "deliveries must land strictly in the future");
  require((sub & kDeliveryBit) == 0, "delivery subkey overflows tag bit");
  return {at, static_cast<std::uint64_t>(sent), kDeliveryBit | sub};
}

EventId EventLoop::push_heap(const Key& key, Action action) {
  const Slot slot = actions_.acquire(std::move(action));
  if (slot >= gen_.size()) {
    gen_.resize(slot + 1, 0);
    heap_pos_.resize(slot + 1, 0);
  }
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{key, slot});
  heap_pos_[slot] = pos;
  sift_up(pos);
  return make_id(slot);
}

void EventLoop::cancel(EventId id) {
  if (id == 0) return;
  const auto slot = static_cast<Slot>((id & 0xffffffffu) - 1);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // A fired or previously-cancelled event released its slot and bumped
  // the generation, so a stale id fails this check and is a no-op.
  if (slot >= gen_.size() || gen_[slot] != gen || !actions_.is_live(slot)) {
    return;
  }
  remove_at(heap_pos_[slot]);
  release_slot(slot);
}

void EventLoop::fire(Slot slot, Nanos at) {
  // Move the action out and release its slot before invoking it, so a
  // cancel() of the firing id from inside the action is a clean no-op
  // and re-scheduling from inside the action can reuse the slot.
  Action action = std::move(actions_[slot]);
  release_slot(slot);
  now_ = at;
  ++executed_;
  action();
  if (watchdog_every_ > 0 && executed_ % watchdog_every_ == 0) {
    watchdog_hook_(*this);
  }
}

bool EventLoop::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  remove_at(0);
  fire(top.slot, top.key.at);
  return true;
}

void EventLoop::run_until(Nanos deadline) {
  require(deadline >= now_, "deadline is in the past");
  while (!heap_.empty() && heap_[0].key.at <= deadline) step();
  now_ = deadline;
}

void EventLoop::run_to_completion() {
  while (step()) {
  }
}

void EventLoop::sift_up(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(entry.key, heap_[parent].key)) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  heap_pos_[entry.slot] = pos;
}

std::uint32_t EventLoop::sift_down(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  const auto count = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = pos * kArity + 1;
    if (first >= count) break;
    std::uint32_t best = first;
    const std::uint32_t limit = std::min(first + kArity, count);
    for (std::uint32_t child = first + 1; child < limit; ++child) {
      if (before(heap_[child].key, heap_[best].key)) best = child;
    }
    if (!before(heap_[best].key, entry.key)) break;
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = pos;
    pos = best;
  }
  heap_[pos] = entry;
  heap_pos_[entry.slot] = pos;
  return pos;
}

void EventLoop::remove_at(std::uint32_t pos) {
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_pos_[heap_[pos].slot] = pos;
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The moved entry may belong above or below its new position; the
    // two sifts are mutually exclusive, so running both is one compare
    // extra at most.
    sift_up(sift_down(pos));
  }
}

void EventLoop::release_slot(Slot slot) {
  actions_.release(slot);
  ++gen_[slot];
}

}  // namespace hostsim
