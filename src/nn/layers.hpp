// Layer library for the CNN zoo (paper Sec. IV-A models).
//
// Layers are polymorphic nodes with value-semantic tensors flowing between
// them. Every parameterized layer exposes its kernel as one contiguous
// std::span<float> — the "succession of model parameters" W that the
// compression codec consumes — plus bias and (for BatchNorm) the per-channel
// statistics, so param_count() matches what Keras reports for the same
// architecture and the paper's Table I fractions can be reproduced.
//
// forward() is inference-grade (im2col + GEMM for conv, GEMM for dense).
// Layers with a kernel also run with a caller's kernel in its place, so a
// sweep replays an approximated layer without writing to a shared model.
// That kernel may be a span or a KernelSource, which hands it over in
// ascending panels of whole rows: Dense and pointwise Conv2D multiply each
// panel as it arrives, so a source that computes its kernel (the δ-sweep's
// codec) never holds all of it.
// A layer may also be handed its first input to keep (forward_owned): ReLU,
// ReLU6, BatchNorm, Flatten, Reshape, Softmax and Add then write their
// output over it instead of copying it, which is how Graph moves
// activations through a pass (DESIGN.md §18).
// backward() is implemented for the subset of layers LeNet-5 needs so the
// in-repo SGD trainer can produce genuinely trained weights; the other
// layers throw if asked to train.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nocw::nn {

enum class LayerType {
  Input,
  Conv2D,
  DepthwiseConv2D,
  Dense,
  MaxPool,
  AvgPool,
  GlobalAvgPool,
  ReLU,
  ReLU6,
  Softmax,
  Flatten,
  BatchNorm,
  Add,
  Concat,
};

const char* layer_type_name(LayerType t) noexcept;

enum class Padding { Valid, Same };

/// Rows per panel of a streamed kernel (see KernelSource). 64 rows of
/// VGG-16's 4096-wide dense_1 are 1 MB, so a panel stays in L2 while its
/// GEMM reads it. A constant, never the thread count.
inline constexpr std::size_t kPanelRows = 64;

/// Receives one panel of a KernelSource.
using PanelConsumer = std::function<void(std::span<const float>)>;

/// A kernel read once, front to back, as consecutive panels of whole rows:
/// rows of B in the layer's product C = A·B, `row_len` floats each.
class KernelSource {
 public:
  virtual ~KernelSource() = default;
  /// Floats in the whole kernel.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  /// Hand the kernel to `consume` in order, in panels whose sizes are
  /// multiples of `row_len`. Called at most once per pass.
  virtual void stream(std::size_t row_len, const PanelConsumer& consume) = 0;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] virtual LayerType type() const noexcept = 0;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Run the layer. `inputs` holds one tensor per graph edge into this node.
  [[nodiscard]] virtual Tensor forward(
      std::span<const Tensor* const> inputs) const = 0;

  /// Run the layer with `kernel` read in place of its own kernel (same
  /// size, same layout). This is how a sweep replays an approximated or
  /// perturbed layer without writing to a shared model; Graph checks the
  /// size. Layers without a kernel throw std::invalid_argument.
  [[nodiscard]] virtual Tensor forward(std::span<const Tensor* const> inputs,
                                       std::span<const float> kernel) const;

  /// As above, with the kernel read from `kernel` panel by panel. Layers
  /// that multiply panels as they come (Dense, pointwise Conv2D) override
  /// this; the others gather the whole kernel first and run the span form.
  [[nodiscard]] virtual Tensor forward(std::span<const Tensor* const> inputs,
                                       KernelSource& kernel) const;

  /// As forward(inputs), or forward(inputs, kernel) when `kernel` is not
  /// empty, with the first input handed over: `first` is that input, which
  /// the caller gives up, and `rest` the inputs after it. In-place layers
  /// (InPlaceLayer) move `first` into their output and write over it; the
  /// others only read it.
  [[nodiscard]] virtual Tensor forward_owned(
      Tensor&& first, std::span<const Tensor* const> rest,
      std::span<const float> kernel) const;

  /// The compressible weight succession (empty for parameterless layers).
  [[nodiscard]] virtual std::span<float> kernel() { return {}; }
  [[nodiscard]] virtual std::span<const float> kernel() const { return {}; }
  [[nodiscard]] virtual std::span<float> bias() { return {}; }

  /// Total trainable (Keras-style) parameter count including bias and, for
  /// BatchNorm, the moving statistics.
  [[nodiscard]] virtual std::size_t param_count() const noexcept { return 0; }

  // --- training interface (LeNet-5 subset) -------------------------------
  /// Propagate `grad_out` to input gradients, accumulating parameter
  /// gradients internally. Layers outside the trainable subset throw.
  [[nodiscard]] virtual std::vector<Tensor> backward(
      std::span<const Tensor* const> /*inputs*/, const Tensor& /*grad_out*/) {
    throw std::logic_error("backward not implemented for layer " + name_);
  }
  virtual void zero_grads() {}
  virtual void sgd_step(float /*lr*/) {}

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

/// A layer whose output overwrites its first input. Its arithmetic is one
/// apply(); forward() runs it on a copy of the first input, forward_owned()
/// on the input itself, so both give the same bits.
class InPlaceLayer : public Layer {
 public:
  using Layer::Layer;
  using Layer::forward;
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const final;
  [[nodiscard]] Tensor forward_owned(
      Tensor&& first, std::span<const Tensor* const> rest,
      std::span<const float> kernel) const final;

 protected:
  /// Write the output over `x`, the first input; `kernel` is empty or, for
  /// a layer with a kernel, that kernel's replacement.
  [[nodiscard]] virtual Tensor apply(Tensor x,
                                     std::span<const Tensor* const> rest,
                                     std::span<const float> kernel) const = 0;
};

// ---------------------------------------------------------------------------

class InputLayer final : public Layer {
 public:
  InputLayer(std::string name, std::vector<int> shape)
      : Layer(std::move(name)), shape_(std::move(shape)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Input;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override;
  [[nodiscard]] const std::vector<int>& input_shape() const noexcept {
    return shape_;
  }

 private:
  std::vector<int> shape_;  ///< expected shape with batch dim 0 = wildcard
};

/// Kernel storage: calloc'd, so a large kernel arrives as untouched zero
/// pages, and value-initializing an element writes nothing. Its pages are
/// first touched where the weights are generated, on the pool's lanes.
/// Growing a vector within capacity it once shrank from would not re-zero.
template <class T>
struct ZeroedAllocator {
  using value_type = T;
  ZeroedAllocator() = default;
  template <class U>
  explicit ZeroedAllocator(const ZeroedAllocator<U>& /*other*/) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept { std::free(p); }
  template <class U>
  void construct(U* /*p*/) noexcept {}
  template <class U>
  void construct(U* p, const U& value) noexcept {
    ::new (static_cast<void*>(p)) U(value);
  }
  friend bool operator==(const ZeroedAllocator&, const ZeroedAllocator&) {
    return true;
  }
};
using KernelStore = std::vector<float, ZeroedAllocator<float>>;

class Conv2D final : public Layer {
 public:
  /// Kernel layout: [kh][kw][cin][cout] (HWIO), contiguous. `use_bias`
  /// mirrors Keras: layers immediately followed by BatchNorm omit the bias.
  Conv2D(std::string name, int in_channels, int out_channels, int kernel_h,
         int kernel_w, int stride, Padding padding, bool use_bias = true);

  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Conv2D;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override {
    return forward(inputs, kernel_);
  }
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               std::span<const float> kernel) const override;
  /// A 1x1, stride-1 conv multiplies each panel as it comes; any other
  /// shape gathers the whole kernel for im2col.
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               KernelSource& kernel) const override;
  [[nodiscard]] std::span<float> kernel() override { return kernel_; }
  [[nodiscard]] std::span<const float> kernel() const override {
    return kernel_;
  }
  [[nodiscard]] std::span<float> bias() override { return bias_; }
  [[nodiscard]] std::size_t param_count() const noexcept override {
    return kernel_.size() + bias_.size();
  }

  [[nodiscard]] std::vector<Tensor> backward(
      std::span<const Tensor* const> inputs, const Tensor& grad_out) override;
  void zero_grads() override;
  void sgd_step(float lr) override;

  [[nodiscard]] int in_channels() const noexcept { return cin_; }
  [[nodiscard]] int out_channels() const noexcept { return cout_; }
  [[nodiscard]] int kernel_h() const noexcept { return kh_; }
  [[nodiscard]] int kernel_w() const noexcept { return kw_; }
  [[nodiscard]] int stride() const noexcept { return stride_; }
  [[nodiscard]] Padding padding() const noexcept { return padding_; }

 private:
  [[nodiscard]] bool pointwise() const noexcept {
    return kh_ == 1 && kw_ == 1 && stride_ == 1;
  }

  int cin_, cout_, kh_, kw_, stride_;
  Padding padding_;
  KernelStore kernel_;
  std::vector<float> bias_;
  std::vector<float> kernel_grad_;
  std::vector<float> bias_grad_;
};

class DepthwiseConv2D final : public Layer {
 public:
  /// Kernel layout: [kh][kw][c], depth multiplier 1 (MobileNet style).
  DepthwiseConv2D(std::string name, int channels, int kernel_h, int kernel_w,
                  int stride, Padding padding, bool use_bias = true);

  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::DepthwiseConv2D;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override {
    return forward(inputs, kernel_);
  }
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               std::span<const float> kernel) const override;
  [[nodiscard]] std::span<float> kernel() override { return kernel_; }
  [[nodiscard]] std::span<const float> kernel() const override {
    return kernel_;
  }
  [[nodiscard]] std::span<float> bias() override { return bias_; }
  [[nodiscard]] std::size_t param_count() const noexcept override {
    return kernel_.size() + bias_.size();
  }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] int kernel_h() const noexcept { return kh_; }
  [[nodiscard]] int kernel_w() const noexcept { return kw_; }
  [[nodiscard]] int stride() const noexcept { return stride_; }
  [[nodiscard]] Padding padding() const noexcept { return padding_; }

 private:
  int channels_, kh_, kw_, stride_;
  Padding padding_;
  KernelStore kernel_;
  std::vector<float> bias_;
};

class Dense final : public Layer {
 public:
  /// Kernel layout: [in][out] row-major.
  Dense(std::string name, int in_features, int out_features);

  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Dense;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override {
    return forward(inputs, kernel_);
  }
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               std::span<const float> kernel) const override;
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               KernelSource& kernel) const override;
  [[nodiscard]] std::span<float> kernel() override { return kernel_; }
  [[nodiscard]] std::span<const float> kernel() const override {
    return kernel_;
  }
  [[nodiscard]] std::span<float> bias() override { return bias_; }
  [[nodiscard]] std::size_t param_count() const noexcept override {
    return kernel_.size() + bias_.size();
  }

  [[nodiscard]] std::vector<Tensor> backward(
      std::span<const Tensor* const> inputs, const Tensor& grad_out) override;
  void zero_grads() override;
  void sgd_step(float lr) override;

  [[nodiscard]] int in_features() const noexcept { return in_; }
  [[nodiscard]] int out_features() const noexcept { return out_; }

 private:
  int in_, out_;
  KernelStore kernel_;
  std::vector<float> bias_;
  std::vector<float> kernel_grad_;
  std::vector<float> bias_grad_;
};

class MaxPool final : public Layer {
 public:
  MaxPool(std::string name, int pool, int stride,
          Padding padding = Padding::Valid)
      : Layer(std::move(name)), pool_(pool), stride_(stride),
        padding_(padding) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::MaxPool;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override;
  /// Training path supports Valid padding (the LeNet-5 configuration).
  [[nodiscard]] std::vector<Tensor> backward(
      std::span<const Tensor* const> inputs, const Tensor& grad_out) override;
  [[nodiscard]] int pool() const noexcept { return pool_; }
  [[nodiscard]] int stride() const noexcept { return stride_; }
  [[nodiscard]] Padding padding() const noexcept { return padding_; }

 private:
  int pool_, stride_;
  Padding padding_;
};

class AvgPool final : public Layer {
 public:
  AvgPool(std::string name, int pool, int stride, Padding padding = Padding::Valid)
      : Layer(std::move(name)), pool_(pool), stride_(stride),
        padding_(padding) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::AvgPool;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override;
  [[nodiscard]] int pool() const noexcept { return pool_; }
  [[nodiscard]] int stride() const noexcept { return stride_; }
  [[nodiscard]] Padding padding() const noexcept { return padding_; }

 private:
  int pool_, stride_;
  Padding padding_;
};

class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::GlobalAvgPool;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override;
};

class ReLU final : public InPlaceLayer {
 public:
  explicit ReLU(std::string name) : InPlaceLayer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::ReLU;
  }
  [[nodiscard]] std::vector<Tensor> backward(
      std::span<const Tensor* const> inputs, const Tensor& grad_out) override;

 protected:
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;
};

class ReLU6 final : public InPlaceLayer {
 public:
  explicit ReLU6(std::string name) : InPlaceLayer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::ReLU6;
  }

 protected:
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;
};

class Softmax final : public InPlaceLayer {
 public:
  explicit Softmax(std::string name) : InPlaceLayer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Softmax;
  }

 protected:
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;
};

/// Reshape to a fixed per-sample shape (batch dim preserved). Used e.g. by
/// MobileNet to view the pooled (N, C) vector as (N, 1, 1, C) so the
/// conv_preds 1x1 convolution can consume it, as in the Keras reference.
class Reshape final : public InPlaceLayer {
 public:
  /// `per_sample_shape` excludes the batch dimension.
  Reshape(std::string name, std::vector<int> per_sample_shape)
      : InPlaceLayer(std::move(name)),
        per_sample_(std::move(per_sample_shape)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Flatten;  // shape-only op, reported as Flatten-kind
  }
  [[nodiscard]] const std::vector<int>& per_sample_shape() const noexcept {
    return per_sample_;
  }

 protected:
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;

 private:
  std::vector<int> per_sample_;
};

class Flatten final : public InPlaceLayer {
 public:
  explicit Flatten(std::string name) : InPlaceLayer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Flatten;
  }
  [[nodiscard]] std::vector<Tensor> backward(
      std::span<const Tensor* const> inputs, const Tensor& grad_out) override;

 protected:
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;
};

/// Inference-mode batch normalization over the channel (last) axis.
/// Holds gamma, beta, moving mean and moving variance so param_count()
/// reports 4*C, matching Keras.
class BatchNorm final : public InPlaceLayer {
 public:
  BatchNorm(std::string name, int channels, float epsilon = 1e-3F);

  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::BatchNorm;
  }
  using InPlaceLayer::forward;
  /// forward() with `kernel` read in place of gamma.
  [[nodiscard]] Tensor forward(std::span<const Tensor* const> inputs,
                               std::span<const float> kernel) const override;
  /// BatchNorm's "kernel" for compression purposes is gamma (rarely chosen
  /// by the layer-selection policy, but exposed for completeness).
  [[nodiscard]] std::span<float> kernel() override { return gamma_; }
  [[nodiscard]] std::span<const float> kernel() const override {
    return gamma_;
  }
  [[nodiscard]] std::span<float> bias() override { return beta_; }
  [[nodiscard]] std::size_t param_count() const noexcept override {
    return gamma_.size() + beta_.size() + mean_.size() + var_.size();
  }

  [[nodiscard]] std::span<float> moving_mean() { return mean_; }
  [[nodiscard]] std::span<float> moving_var() { return var_; }

 protected:
  /// y = x * scale + shift per channel, with scale from `kernel` (gamma
  /// when empty).
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;

 private:
  float eps_;
  std::vector<float> gamma_, beta_, mean_, var_;
};

class Add final : public InPlaceLayer {
 public:
  explicit Add(std::string name) : InPlaceLayer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Add;
  }

 protected:
  /// x += each of `rest`, in order.
  [[nodiscard]] Tensor apply(Tensor x, std::span<const Tensor* const> rest,
                             std::span<const float> kernel) const override;
};

/// Concatenation along the channel (last) axis.
class Concat final : public Layer {
 public:
  explicit Concat(std::string name) : Layer(std::move(name)) {}
  [[nodiscard]] LayerType type() const noexcept override {
    return LayerType::Concat;
  }
  [[nodiscard]] Tensor forward(
      std::span<const Tensor* const> inputs) const override;
};

/// Output spatial extent for a conv/pool window.
int conv_out_extent(int in, int window, int stride, Padding padding) noexcept;
/// Total padding applied on one axis under SAME (split begin/end like TF).
int same_pad_total(int in, int window, int stride) noexcept;

}  // namespace nocw::nn
