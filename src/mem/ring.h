// FIFO ring: push at the back, pop at the front, index from the front.
// One power-of-two slot array that doubles when full (oldest item first)
// and never shrinks, so a steady-state queue allocates nothing; an empty
// ring owns no memory.  A popped slot keeps its moved-from item until a
// later push overwrites it.
#ifndef HOSTSIM_MEM_RING_H
#define HOSTSIM_MEM_RING_H

#include <cstddef>
#include <utility>
#include <vector>

namespace hostsim {

/// FIFO of items of type T (default-constructible and movable).
template <class T>
class Ring {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return slots_[wrap(head_ + i)]; }
  T& front() { return slots_[head_]; }
  T& back() { return slots_[wrap(head_ + size_ - 1)]; }

  void push_back(T item) {
    if (size_ == slots_.size()) {
      std::vector<T> bigger(size_ == 0 ? 8 : 2 * size_);
      for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
      slots_ = std::move(bigger);
      head_ = 0;
    }
    slots_[wrap(head_ + size_++)] = std::move(item);
  }

  /// Removes the front item and returns it.
  T pop_front() {
    T item = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return item;
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

  std::vector<T> slots_;  ///< power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_MEM_RING_H
