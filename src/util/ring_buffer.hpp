// A bank of fixed-capacity FIFOs sharing one contiguous allocation.
//
// The NoC keeps every router input lane of the mesh in one bank: ring i
// occupies slots [i * capacity, (i + 1) * capacity), and its head and size
// are one byte each in two flat arrays, so the size array doubles as the
// occupancy state the cycle engine snapshots with a single copy. Capacity
// is a runtime constant (buffer depth is an architectural parameter) in
// [1, 255]; push and pop wrap by compare, not modulo, since the simulator
// performs millions of them per run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace nocw {

template <typename T>
class RingBuffers {
 public:
  RingBuffers(std::size_t count, std::size_t capacity)
      : slots_(count * capacity), head_(count, 0), size_(count, 0),
        capacity_(capacity) {
    NOCW_CHECK_GT(capacity, std::size_t{0});
    NOCW_CHECK_LE(capacity, std::size_t{255});
  }

  [[nodiscard]] std::size_t count() const noexcept { return size_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool empty(std::size_t ring) const noexcept {
    return size_[ring] == 0;
  }
  [[nodiscard]] bool full(std::size_t ring) const noexcept {
    return size_[ring] == capacity_;
  }
  [[nodiscard]] std::size_t size(std::size_t ring) const noexcept {
    return size_[ring];
  }
  /// Every ring's size, indexed by ring.
  [[nodiscard]] std::span<const std::uint8_t> sizes() const noexcept {
    return size_;
  }

  /// Push one element; caller must check !full(ring) first.
  void push(std::size_t ring, T value) {
    NOCW_CHECK(!full(ring));
    std::size_t at = head_[ring] + size_[ring];
    if (at >= capacity_) at -= capacity_;
    slots_[ring * capacity_ + at] = std::move(value);
    ++size_[ring];
  }

  /// Front element; caller must check !empty(ring) first.
  [[nodiscard]] const T& front(std::size_t ring) const {
    NOCW_CHECK(!empty(ring));
    return slots_[ring * capacity_ + head_[ring]];
  }

  /// Pop and return the front element; caller must check !empty(ring).
  T pop(std::size_t ring) {
    NOCW_CHECK(!empty(ring));
    std::uint8_t& head = head_[ring];
    T value = std::move(slots_[ring * capacity_ + head]);
    const std::size_t next = head + std::size_t{1};
    head = static_cast<std::uint8_t>(next == capacity_ ? 0 : next);
    --size_[ring];
    return value;
  }

  /// Empty every ring.
  void clear() noexcept {
    std::fill(head_.begin(), head_.end(), std::uint8_t{0});
    std::fill(size_.begin(), size_.end(), std::uint8_t{0});
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint8_t> head_;
  std::vector<std::uint8_t> size_;
  std::size_t capacity_;
};

}  // namespace nocw
