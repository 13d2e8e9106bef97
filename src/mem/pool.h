// Slab/freelist object pool with stable slot handles.
//
// The hot paths park objects that are logically "in flight" — event
// nodes waiting in the timer queue, skbs crossing cores on the RPS/RFS
// requeue.  Allocating each of those
// individually (or keying them into an unordered_map) costs an
// allocation plus a hash per object.  SlotPool recycles slots from a
// contiguous slab through a freelist instead: acquire/release are O(1),
// released slots are reused LIFO (cache-warm), and a slot index is a
// compact 4-byte handle that fits inside an inline event capture.
//
// Deliberately dependency-free (no sim/ or cpu/ includes) so the event
// engine itself can pool its nodes with it.
#ifndef HOSTSIM_MEM_POOL_H
#define HOSTSIM_MEM_POOL_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace hostsim {

template <class T>
class SlotPool {
 public:
  using Slot = std::uint32_t;

  /// Constructs a T from `args` in a recycled (or fresh) slot and
  /// returns its handle.  Handles stay valid until release().
  template <class... Args>
  Slot acquire(Args&&... args) {
    ++acquired_;
    if (!free_.empty()) {
      const Slot slot = free_.back();
      free_.pop_back();
      entries_[slot].emplace(std::forward<Args>(args)...);
      return slot;
    }
    entries_.emplace_back(std::in_place, std::forward<Args>(args)...);
    return static_cast<Slot>(entries_.size() - 1);
  }

  /// Destroys the object in `slot` and recycles the slot.
  void release(Slot slot) {
    entries_[slot].reset();
    free_.push_back(slot);
  }

  T& operator[](Slot slot) { return *entries_[slot]; }
  const T& operator[](Slot slot) const { return *entries_[slot]; }

  bool is_live(Slot slot) const {
    return slot < entries_.size() && entries_[slot].has_value();
  }

  /// Objects currently alive in the pool.
  std::size_t live() const { return entries_.size() - free_.size(); }
  /// Slots ever created (live + recyclable).
  std::size_t capacity() const { return entries_.size(); }
  /// Total acquire() calls; `acquired() - capacity()` of them were
  /// served by recycling a slot instead of growing the slab.
  std::uint64_t acquired() const { return acquired_; }

  bool empty() const { return live() == 0; }

  /// Visits every live object in ascending slot order (deterministic).
  template <class F>
  void for_each(F&& visit) const {
    for (const std::optional<T>& entry : entries_) {
      if (entry.has_value()) visit(*entry);
    }
  }

  /// Destroys every live object and forgets all slots.
  void clear() {
    entries_.clear();
    free_.clear();
  }

 private:
  std::vector<std::optional<T>> entries_;
  std::vector<Slot> free_;
  std::uint64_t acquired_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_MEM_POOL_H
