#include "nn/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace nocw::nn {

std::size_t Tensor::shape_size(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("negative tensor extent");
    n *= static_cast<std::size_t>(d);
  }
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0F) {}

Tensor Tensor::unfilled(std::vector<int> shape) {
  Tensor t;
  t.data_.resize(shape_size(shape));
  t.shape_ = std::move(shape);
  return t;
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_.size()) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) *this = Tensor(other);
  return *this;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::reshape(std::vector<int> new_shape) {
  if (shape_size(new_shape) != data_.size()) {
    throw std::invalid_argument("reshape changes element count");
  }
  shape_ = std::move(new_shape);
}

std::string Tensor::shape_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape_[i]);
  }
  s += "]";
  return s;
}

}  // namespace nocw::nn
