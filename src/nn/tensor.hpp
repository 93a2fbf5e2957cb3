// Dense float tensor in NHWC layout (the layout the accelerator streams).
//
// Shapes are runtime vectors of extents; rank 1 (flat), 2 (N,C) and 4
// (N,H,W,C) cover every layer in the zoo. Data is value-semantic and
// contiguous, so layers can expose their kernels to the compression codec as
// a single std::span<float> — exactly the "succession of model parameters"
// the paper compresses. Tensor(shape) zero-fills; Tensor::unfilled(shape)
// leaves the floats unwritten, for a layer that writes every element before
// anything reads it (DESIGN.md §18, "Activations move through the pass").
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace nocw::nn {

class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape)
      : Tensor(std::vector<int>(shape)) {}

  /// Elements left unwritten: only for a caller that writes every element
  /// before reading any.
  [[nodiscard]] static Tensor unfilled(std::vector<int> shape);

  // Out of line: the allocator's element-wise construct() would make the
  // implicit copy a scalar loop; these copy with one memmove.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  ~Tensor() = default;

  [[nodiscard]] const std::vector<int>& shape() const noexcept {
    return shape_;
  }
  [[nodiscard]] int rank() const noexcept {
    return static_cast<int>(shape_.size());
  }
  [[nodiscard]] int dim(int i) const {
    NOCW_CHECK(i >= 0 && i < rank());
    return shape_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  float& operator[](std::size_t i) {
    NOCW_CHECK_LT(i, data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    NOCW_CHECK_LT(i, data_.size());
    return data_[i];
  }

  /// NHWC element access for rank-4 tensors.
  float& at(int n, int h, int w, int c) {
    return data_[flat_index(n, h, w, c)];
  }
  const float& at(int n, int h, int w, int c) const {
    return data_[flat_index(n, h, w, c)];
  }

  /// (N, C) element access for rank-2 tensors.
  float& at(int n, int c) {
    NOCW_CHECK_EQ(rank(), 2);
    return data_[static_cast<std::size_t>(n) * shape_[1] + c];
  }
  const float& at(int n, int c) const {
    NOCW_CHECK_EQ(rank(), 2);
    return data_[static_cast<std::size_t>(n) * shape_[1] + c];
  }

  void fill(float value);

  /// Reshape in place; the element count must match.
  void reshape(std::vector<int> new_shape);

  [[nodiscard]] std::string shape_string() const;

  static std::size_t shape_size(const std::vector<int>& shape);

 private:
  [[nodiscard]] std::size_t flat_index(int n, int h, int w, int c) const {
    NOCW_CHECK_EQ(rank(), 4);
    NOCW_CHECK(n >= 0 && n < shape_[0] && h >= 0 && h < shape_[1]);
    NOCW_CHECK(w >= 0 && w < shape_[2] && c >= 0 && c < shape_[3]);
    return ((static_cast<std::size_t>(n) * shape_[1] + h) * shape_[2] + w) *
               shape_[3] +
           c;
  }

  /// std::allocator whose value-less construct() default-initializes, so
  /// the vector's size constructor and resize() leave floats unwritten.
  template <class T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  std::vector<int> shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace nocw::nn
