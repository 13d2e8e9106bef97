// Small vector: inline storage for the common small case, heap spill
// beyond it.
//
// The datapath's per-object arrays are almost always tiny — an rx
// descriptor spans at most four pool pages (a 9066-byte jumbo one spans
// 3 or 4, a 1566-byte one 1 or 2), a tx chunk at most sixteen — but
// std::vector pays a heap allocation for every one of them, on every
// wire frame.  SmallVec keeps up to N elements in the object itself and
// only allocates when a merge (GRO/LRO trains, 64KB chunks) grows past
// that, so the per-frame hot path performs no allocation at all.
#ifndef HOSTSIM_MEM_SMALL_VEC_H
#define HOSTSIM_MEM_SMALL_VEC_H

#include <cstddef>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

namespace hostsim {

template <class T, std::size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  SmallVec(SmallVec&& other) noexcept { steal_from(other); }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy();
      steal_from(other);
    }
    return *this;
  }

  SmallVec(const SmallVec& other) { append(other.begin(), other.end()); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }

  ~SmallVec() { destroy(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t index) { return data_[index]; }
  const T& operator[](std::size_t index) const { return data_[index]; }
  T& front() { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  /// True while the elements live in the inline buffer (no heap).
  bool is_inline() const { return data_ == inline_data(); }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(size_ + 1);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Appends [first, last); with move iterators this moves elements in.
  template <class InputIt>
  void append(InputIt first, InputIt last) {
    for (; first != last; ++first) emplace_back(*first);
  }

  /// Moves every element of `other` onto the back; `other` is left empty.
  void append_from(SmallVec&& other) {
    append(std::make_move_iterator(other.begin()),
           std::make_move_iterator(other.end()));
    other.clear();
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

 private:
  T* inline_data() {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void grow(std::size_t wanted) {
    std::size_t next = capacity_ * 2;
    if (next < wanted) next = wanted;
    T* fresh = static_cast<T*>(
        ::operator new(next * sizeof(T), std::align_val_t(alignof(T))));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = fresh;
    capacity_ = next;
  }

  void release_heap() {
    if (!is_inline()) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
  }

  void destroy() {
    clear();
    release_heap();
    data_ = inline_data();
    capacity_ = N;
  }

  /// Takes other's heap buffer, or moves its inline elements over.
  /// *this must be freshly default-constructed or destroy()ed.
  void steal_from(SmallVec& other) {
    if (other.is_inline()) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace hostsim

#endif  // HOSTSIM_MEM_SMALL_VEC_H
