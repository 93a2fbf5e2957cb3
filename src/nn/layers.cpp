#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "nn/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {

const char* layer_type_name(LayerType t) noexcept {
  switch (t) {
    case LayerType::Input: return "Input";
    case LayerType::Conv2D: return "Conv2D";
    case LayerType::DepthwiseConv2D: return "DepthwiseConv2D";
    case LayerType::Dense: return "Dense";
    case LayerType::MaxPool: return "MaxPool";
    case LayerType::AvgPool: return "AvgPool";
    case LayerType::GlobalAvgPool: return "GlobalAvgPool";
    case LayerType::ReLU: return "ReLU";
    case LayerType::ReLU6: return "ReLU6";
    case LayerType::Softmax: return "Softmax";
    case LayerType::Flatten: return "Flatten";
    case LayerType::BatchNorm: return "BatchNorm";
    case LayerType::Add: return "Add";
    case LayerType::Concat: return "Concat";
  }
  return "?";
}

int conv_out_extent(int in, int window, int stride, Padding padding) noexcept {
  if (padding == Padding::Same) return (in + stride - 1) / stride;
  return (in - window) / stride + 1;
}

int same_pad_total(int in, int window, int stride) noexcept {
  const int out = (in + stride - 1) / stride;
  return std::max((out - 1) * stride + window - in, 0);
}

namespace {

const Tensor& first_input(std::span<const Tensor* const> inputs) {
  if (inputs.empty() || inputs[0] == nullptr) {
    throw std::invalid_argument("layer expects an input");
  }
  return *inputs[0];
}

/// For layers with one input: nothing may follow the first.
void require_no_rest(std::span<const Tensor* const> rest) {
  if (!rest.empty()) {
    throw std::invalid_argument("layer expects exactly one input");
  }
}

const Tensor& single_input(std::span<const Tensor* const> inputs) {
  const Tensor& in = first_input(inputs);
  require_no_rest(inputs.subspan(1));
  return in;
}

void require_rank(const Tensor& t, int rank, const char* what) {
  if (t.rank() != rank) {
    throw std::invalid_argument(std::string(what) + ": expected rank " +
                                std::to_string(rank) + ", got " +
                                t.shape_string());
  }
}

/// Chunk size for parallelizing a conv's output-row loop: coarse enough to
/// amortize dispatch, fine enough to balance. Chunk boundaries never affect
/// results (each output row is written by exactly one chunk).
std::size_t row_grain(std::size_t rows) {
  const unsigned lanes = global_thread_count();
  return std::max<std::size_t>(1,
                               rows / (static_cast<std::size_t>(lanes) * 4));
}

/// Fewest floats one chunk of an elementwise, bias or pooling pass covers,
/// so a small tensor (LeNet-5's, a softmax row) runs inline instead of
/// paying for a pool dispatch.
constexpr std::size_t kMinChunkFloats = std::size_t{1} << 16;

/// body(r0, r1) over rows [0, rows) of `row_floats` floats each, on the
/// global pool. Each row is written by one chunk and its arithmetic does not
/// depend on where chunks start, so results are bit-identical for any
/// thread count.
template <class Body>
void for_rows(std::size_t rows, std::size_t row_floats, const Body& body) {
  const std::size_t min_rows =
      std::max<std::size_t>(1, kMinChunkFloats / std::max<std::size_t>(
                                                      row_floats, 1));
  global_pool().parallel_for(
      0, rows, std::max(min_rows, row_grain(rows)),
      [&](std::size_t r0, std::size_t r1, unsigned /*lane*/) { body(r0, r1); });
}

/// A kernel in memory as a source: one panel, the whole span.
class SpanSource final : public KernelSource {
 public:
  explicit SpanSource(std::span<const float> kernel) noexcept
      : kernel_(kernel) {}
  [[nodiscard]] std::size_t size() const noexcept override {
    return kernel_.size();
  }
  void stream(std::size_t /*row_len*/,
              const PanelConsumer& consume) override {
    consume(kernel_);
  }

 private:
  std::span<const float> kernel_;
};

/// C[m x n] = A[m x k] * B, with B read from `source` in ascending panels of
/// whole n-float rows. The first panel's gemm writes C and the others
/// accumulate, so every element is the one-call chain c = c + a * b in
/// ascending k, bit for bit (gemm.hpp). A panel short of all k rows
/// multiplies a copy of A's matching columns.
void gemm_panels(const float* a, std::size_t m, std::size_t k, std::size_t n,
                 KernelSource& source, float* c) {
  if (n == 0) return;
  if (k == 0) {  // no panel to write C
    std::fill_n(c, m * n, 0.0F);
    return;
  }
  Tensor slice;
  std::size_t k0 = 0;
  source.stream(n, [&](std::span<const float> panel) {
    const std::size_t kp = panel.size() / n;
    NOCW_CHECK(kp * n == panel.size() && kp <= k - k0);
    const float* ap = a;
    if (kp != k) {
      if (slice.size() < m * kp) {
        slice = Tensor::unfilled({static_cast<int>(m), static_cast<int>(kp)});
      }
      for (std::size_t r = 0; r < m; ++r) {
        std::memcpy(slice.raw() + r * kp, a + r * k + k0, kp * sizeof(float));
      }
      ap = slice.raw();
    }
    gemm(ap, panel.data(), c, m, kp, n, /*accumulate=*/k0 > 0);
    k0 += kp;
  });
  NOCW_CHECK(k0 == k);
}

/// row[j] += bias[j] for each of `rows` rows of bias.size() floats at `c`.
void add_bias(float* c, std::size_t rows, std::span<const float> bias) {
  if (bias.empty()) return;
  for_rows(rows, bias.size(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* row = c + r * bias.size();
      for (std::size_t j = 0; j < bias.size(); ++j) row[j] += bias[j];
    }
  });
}

}  // namespace

Tensor Layer::forward(std::span<const Tensor* const> /*inputs*/,
                     std::span<const float> /*kernel*/) const {
  throw std::invalid_argument("layer " + name_ + " has no kernel to override");
}

Tensor Layer::forward(std::span<const Tensor* const> inputs,
                      KernelSource& kernel) const {
  Tensor whole = Tensor::unfilled({static_cast<int>(kernel.size())});
  std::size_t at = 0;
  kernel.stream(1, [&](std::span<const float> panel) {
    NOCW_CHECK(panel.size() <= whole.size() - at);
    std::copy(panel.begin(), panel.end(), whole.raw() + at);
    at += panel.size();
  });
  NOCW_CHECK_EQ(at, whole.size());
  return forward(inputs, std::as_const(whole).data());
}

Tensor Layer::forward_owned(Tensor&& first,
                            std::span<const Tensor* const> rest,
                            std::span<const float> kernel) const {
  std::vector<const Tensor*> inputs{&first};
  inputs.insert(inputs.end(), rest.begin(), rest.end());
  return kernel.empty() ? forward(inputs) : forward(inputs, kernel);
}

Tensor InPlaceLayer::forward(std::span<const Tensor* const> inputs) const {
  return apply(first_input(inputs), inputs.subspan(1), {});
}

Tensor InPlaceLayer::forward_owned(Tensor&& first,
                                   std::span<const Tensor* const> rest,
                                   std::span<const float> kernel) const {
  if (!kernel.empty() && this->kernel().empty()) {
    // Layer::forward(inputs, kernel) throws for a layer without a kernel.
    return Layer::forward_owned(std::move(first), rest, kernel);
  }
  return apply(std::move(first), rest, kernel);
}

// --- InputLayer ------------------------------------------------------------

Tensor InputLayer::forward(std::span<const Tensor* const> inputs) const {
  const Tensor& in = single_input(inputs);
  if (static_cast<int>(shape_.size()) != in.rank()) {
    throw std::invalid_argument("input rank mismatch for " + name());
  }
  for (std::size_t i = 1; i < shape_.size(); ++i) {
    if (shape_[i] != in.shape()[i]) {
      throw std::invalid_argument("input shape mismatch for " + name() +
                                  ": got " + in.shape_string());
    }
  }
  return in;  // pass-through copy
}

// --- Conv2D ------------------------------------------------------------------

Conv2D::Conv2D(std::string name, int in_channels, int out_channels,
               int kernel_h, int kernel_w, int stride, Padding padding,
               bool use_bias)
    : Layer(std::move(name)), cin_(in_channels), cout_(out_channels),
      kh_(kernel_h), kw_(kernel_w), stride_(stride), padding_(padding),
      kernel_(static_cast<std::size_t>(kernel_h) * kernel_w * in_channels *
              out_channels),
      bias_(use_bias ? static_cast<std::size_t>(out_channels) : 0) {}

Tensor Conv2D::forward(std::span<const Tensor* const> inputs,
                       std::span<const float> kernel) const {
  if (pointwise()) {
    SpanSource source(kernel);
    return forward(inputs, source);
  }
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "Conv2D");
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  if (c != cin_) throw std::invalid_argument("Conv2D channel mismatch");
  const int oh = conv_out_extent(h, kh_, stride_, padding_);
  const int ow = conv_out_extent(w, kw_, stride_, padding_);
  const int pad_top =
      padding_ == Padding::Same ? same_pad_total(h, kh_, stride_) / 2 : 0;
  const int pad_left =
      padding_ == Padding::Same ? same_pad_total(w, kw_, stride_) / 2 : 0;

  Tensor out = Tensor::unfilled({n, oh, ow, cout_});
  const std::size_t k = static_cast<std::size_t>(kh_) * kw_ * cin_;
  const std::size_t positions = static_cast<std::size_t>(oh) * ow;
  // Every element of `cols` and `out` is written (im2col pads with explicit
  // zeros; gemm overwrites C) before it is read.
  Tensor cols = Tensor::unfilled({oh * ow, static_cast<int>(k)});
  const std::size_t in_pixel = static_cast<std::size_t>(cin_);
  const std::size_t in_image = static_cast<std::size_t>(h) * w * in_pixel;

  for (int img = 0; img < n; ++img) {
    const float* src = in.raw() + static_cast<std::size_t>(img) * in_image;
    // im2col: one row of `cols` per output position. Output rows are
    // disjoint `cols` slices, so the y loop parallelizes without
    // synchronization (and runs inline when already inside a parallel
    // region, e.g. a batched Graph::forward).
    global_pool().parallel_for(
        0, static_cast<std::size_t>(oh), row_grain(oh),
        [&](std::size_t y0, std::size_t y1, unsigned /*lane*/) {
          for (std::size_t y = y0; y < y1; ++y) {
            float* col = cols.raw() + y * ow * k;
            for (int x = 0; x < ow; ++x) {
              for (int ky = 0; ky < kh_; ++ky) {
                const int iy =
                    static_cast<int>(y) * stride_ - pad_top + ky;
                float* dst =
                    col + (static_cast<std::size_t>(ky) * kw_) * cin_;
                if (iy < 0 || iy >= h) {
                  std::memset(dst, 0, static_cast<std::size_t>(kw_) * cin_ *
                                          sizeof(float));
                  continue;
                }
                const int ix0 = x * stride_ - pad_left;
                const float* row =
                    src + static_cast<std::size_t>(iy) * w * in_pixel;
                if (ix0 >= 0 && ix0 + kw_ <= w) {
                  std::memcpy(dst, row + ix0 * in_pixel,
                              static_cast<std::size_t>(kw_) * cin_ *
                                  sizeof(float));
                } else {
                  for (int kx = 0; kx < kw_; ++kx) {
                    const int ix = ix0 + kx;
                    float* d = dst + static_cast<std::size_t>(kx) * cin_;
                    if (ix < 0 || ix >= w) {
                      std::memset(d, 0, static_cast<std::size_t>(cin_) *
                                            sizeof(float));
                    } else {
                      std::memcpy(d, row + ix * in_pixel,
                                  static_cast<std::size_t>(cin_) *
                                      sizeof(float));
                    }
                  }
                }
              }
              col += k;
            }
          }
        });
    gemm(cols.raw(), kernel.data(),
         out.raw() + static_cast<std::size_t>(img) * positions * cout_,
         positions, k, static_cast<std::size_t>(cout_));
  }
  add_bias(out.raw(), static_cast<std::size_t>(n) * positions, bias_);
  return out;
}

Tensor Conv2D::forward(std::span<const Tensor* const> inputs,
                       KernelSource& kernel) const {
  if (!pointwise()) return Layer::forward(inputs, kernel);
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "Conv2D");
  if (in.dim(3) != cin_) throw std::invalid_argument("Conv2D channel mismatch");
  // A 1x1, stride-1 conv's im2col matrix is the NHWC input itself, so the
  // whole batch is one product.
  Tensor out = Tensor::unfilled({in.dim(0), in.dim(1), in.dim(2), cout_});
  const std::size_t rows = static_cast<std::size_t>(in.dim(0)) * in.dim(1) *
                           static_cast<std::size_t>(in.dim(2));
  gemm_panels(in.raw(), rows, static_cast<std::size_t>(cin_),
              static_cast<std::size_t>(cout_), kernel, out.raw());
  add_bias(out.raw(), rows, bias_);
  return out;
}

std::vector<Tensor> Conv2D::backward(std::span<const Tensor* const> inputs,
                                     const Tensor& grad_out) {
  if (padding_ != Padding::Valid) {
    throw std::logic_error("Conv2D::backward supports Valid padding only");
  }
  const Tensor& in = single_input(inputs);
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2);
  const int oh = grad_out.dim(1), ow = grad_out.dim(2);
  if (kernel_grad_.empty()) kernel_grad_.resize(kernel_.size(), 0.0F);
  if (bias_grad_.empty()) bias_grad_.resize(bias_.size(), 0.0F);

  Tensor grad_in({n, h, w, cin_});
  for (int img = 0; img < n; ++img) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        const float* go = &grad_out.at(img, y, x, 0);
        if (!bias_grad_.empty()) {
          for (int co = 0; co < cout_; ++co) bias_grad_[co] += go[co];
        }
        for (int ky = 0; ky < kh_; ++ky) {
          const int iy = y * stride_ + ky;
          for (int kx = 0; kx < kw_; ++kx) {
            const int ix = x * stride_ + kx;
            const float* iv = &in.at(img, iy, ix, 0);
            float* gv = &grad_in.at(img, iy, ix, 0);
            float* kbase =
                kernel_grad_.data() +
                ((static_cast<std::size_t>(ky) * kw_ + kx) * cin_) * cout_;
            const float* wbase =
                kernel_.data() +
                ((static_cast<std::size_t>(ky) * kw_ + kx) * cin_) * cout_;
            for (int ci = 0; ci < cin_; ++ci) {
              const float ival = iv[ci];
              float gacc = 0.0F;
              float* krow = kbase + static_cast<std::size_t>(ci) * cout_;
              const float* wrow = wbase + static_cast<std::size_t>(ci) * cout_;
              for (int co = 0; co < cout_; ++co) {
                krow[co] += ival * go[co];
                gacc += wrow[co] * go[co];
              }
              gv[ci] += gacc;
            }
          }
        }
      }
    }
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_in));
  return grads;
}

void Conv2D::zero_grads() {
  std::fill(kernel_grad_.begin(), kernel_grad_.end(), 0.0F);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0F);
}

void Conv2D::sgd_step(float lr) {
  if (kernel_grad_.empty()) return;
  for (std::size_t i = 0; i < kernel_.size(); ++i) {
    kernel_[i] -= lr * kernel_grad_[i];
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= lr * bias_grad_[i];
  }
}

// --- DepthwiseConv2D ---------------------------------------------------------

DepthwiseConv2D::DepthwiseConv2D(std::string name, int channels, int kernel_h,
                                 int kernel_w, int stride, Padding padding,
                                 bool use_bias)
    : Layer(std::move(name)), channels_(channels), kh_(kernel_h),
      kw_(kernel_w), stride_(stride), padding_(padding),
      kernel_(static_cast<std::size_t>(kernel_h) * kernel_w * channels),
      bias_(use_bias ? static_cast<std::size_t>(channels) : 0) {}

Tensor DepthwiseConv2D::forward(std::span<const Tensor* const> inputs,
                                std::span<const float> kernel) const {
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "DepthwiseConv2D");
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  if (c != channels_) {
    throw std::invalid_argument("DepthwiseConv2D channel mismatch");
  }
  const int oh = conv_out_extent(h, kh_, stride_, padding_);
  const int ow = conv_out_extent(w, kw_, stride_, padding_);
  const int pad_top =
      padding_ == Padding::Same ? same_pad_total(h, kh_, stride_) / 2 : 0;
  const int pad_left =
      padding_ == Padding::Same ? same_pad_total(w, kw_, stride_) / 2 : 0;

  // Every output pixel starts from its bias (or zero) below.
  Tensor out = Tensor::unfilled({n, oh, ow, channels_});
  const std::size_t cs = static_cast<std::size_t>(channels_);
  const std::size_t rows = static_cast<std::size_t>(n) * oh;
  // Each output row is written by exactly one chunk: safe, bit-exact
  // parallelism (per-pixel accumulation order is unchanged).
  global_pool().parallel_for(
      0, rows, row_grain(rows),
      [&](std::size_t r0, std::size_t r1, unsigned /*lane*/) {
        for (std::size_t r = r0; r < r1; ++r) {
          const int y = static_cast<int>(r % oh);
          const float* src = in.raw() + r / oh * h * w * cs;
          for (int x = 0; x < ow; ++x) {
            float* o = out.raw() + (r * ow + x) * cs;
            if (bias_.empty()) {
              for (std::size_t ci = 0; ci < cs; ++ci) o[ci] = 0.0F;
            } else {
              for (std::size_t ci = 0; ci < cs; ++ci) o[ci] = bias_[ci];
            }
            for (int ky = 0; ky < kh_; ++ky) {
              const int iy = y * stride_ - pad_top + ky;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < kw_; ++kx) {
                const int ix = x * stride_ - pad_left + kx;
                if (ix < 0 || ix >= w) continue;
                const float* iv =
                    src + (static_cast<std::size_t>(iy) * w + ix) * cs;
                const float* kv =
                    kernel.data() +
                    (static_cast<std::size_t>(ky) * kw_ + kx) * cs;
                for (std::size_t ci = 0; ci < cs; ++ci) {
                  o[ci] += iv[ci] * kv[ci];
                }
              }
            }
          }
        }
      });
  return out;
}

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::string name, int in_features, int out_features)
    : Layer(std::move(name)), in_(in_features), out_(out_features),
      kernel_(static_cast<std::size_t>(in_features) * out_features),
      bias_(static_cast<std::size_t>(out_features)) {}

Tensor Dense::forward(std::span<const Tensor* const> inputs,
                      std::span<const float> kernel) const {
  SpanSource source(kernel);
  return forward(inputs, source);
}

Tensor Dense::forward(std::span<const Tensor* const> inputs,
                      KernelSource& kernel) const {
  const Tensor& in = single_input(inputs);
  require_rank(in, 2, "Dense");
  if (in.dim(1) != in_) throw std::invalid_argument("Dense feature mismatch");
  const int n = in.dim(0);
  Tensor out = Tensor::unfilled({n, out_});
  gemm_panels(in.raw(), static_cast<std::size_t>(n),
              static_cast<std::size_t>(in_), static_cast<std::size_t>(out_),
              kernel, out.raw());
  add_bias(out.raw(), static_cast<std::size_t>(n), bias_);
  return out;
}

std::vector<Tensor> Dense::backward(std::span<const Tensor* const> inputs,
                                    const Tensor& grad_out) {
  const Tensor& in = single_input(inputs);
  const int n = in.dim(0);
  if (kernel_grad_.empty()) kernel_grad_.resize(kernel_.size(), 0.0F);
  if (bias_grad_.empty()) bias_grad_.resize(bias_.size(), 0.0F);

  Tensor grad_in({n, in_});
  for (int img = 0; img < n; ++img) {
    const float* x = in.raw() + static_cast<std::size_t>(img) * in_;
    const float* go = grad_out.raw() + static_cast<std::size_t>(img) * out_;
    float* gi = grad_in.raw() + static_cast<std::size_t>(img) * in_;
    for (int j = 0; j < out_; ++j) bias_grad_[j] += go[j];
    for (int i = 0; i < in_; ++i) {
      float* krow = kernel_grad_.data() + static_cast<std::size_t>(i) * out_;
      const float* wrow = kernel_.data() + static_cast<std::size_t>(i) * out_;
      const float xv = x[i];
      float acc = 0.0F;
      for (int j = 0; j < out_; ++j) {
        krow[j] += xv * go[j];
        acc += wrow[j] * go[j];
      }
      gi[i] = acc;
    }
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_in));
  return grads;
}

void Dense::zero_grads() {
  std::fill(kernel_grad_.begin(), kernel_grad_.end(), 0.0F);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0F);
}

void Dense::sgd_step(float lr) {
  if (kernel_grad_.empty()) return;
  for (std::size_t i = 0; i < kernel_.size(); ++i) {
    kernel_[i] -= lr * kernel_grad_[i];
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    bias_[i] -= lr * bias_grad_[i];
  }
}

// --- Pooling -----------------------------------------------------------------

Tensor MaxPool::forward(std::span<const Tensor* const> inputs) const {
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "MaxPool");
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  const int oh = conv_out_extent(h, pool_, stride_, padding_);
  const int ow = conv_out_extent(w, pool_, stride_, padding_);
  const int pad_top =
      padding_ == Padding::Same ? same_pad_total(h, pool_, stride_) / 2 : 0;
  const int pad_left =
      padding_ == Padding::Same ? same_pad_total(w, pool_, stride_) / 2 : 0;
  // Every output pixel starts from -inf below.
  Tensor out = Tensor::unfilled({n, oh, ow, c});
  const std::size_t cs = static_cast<std::size_t>(c);
  for_rows(static_cast<std::size_t>(n) * oh, static_cast<std::size_t>(ow) * cs,
           [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const int y = static_cast<int>(r % oh);
      const float* src = in.raw() + r / oh * h * w * cs;
      for (int x = 0; x < ow; ++x) {
        float* o = out.raw() + (r * ow + x) * cs;
        for (std::size_t ci = 0; ci < cs; ++ci) {
          o[ci] = -std::numeric_limits<float>::infinity();
        }
        for (int ky = 0; ky < pool_; ++ky) {
          const int iy = y * stride_ - pad_top + ky;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < pool_; ++kx) {
            const int ix = x * stride_ - pad_left + kx;
            if (ix < 0 || ix >= w) continue;
            const float* iv =
                src + (static_cast<std::size_t>(iy) * w + ix) * cs;
            for (std::size_t ci = 0; ci < cs; ++ci) {
              o[ci] = std::max(o[ci], iv[ci]);
            }
          }
        }
      }
    }
  });
  return out;
}

std::vector<Tensor> MaxPool::backward(std::span<const Tensor* const> inputs,
                                      const Tensor& grad_out) {
  if (padding_ != Padding::Valid) {
    throw std::logic_error("MaxPool::backward supports Valid padding only");
  }
  const Tensor& in = single_input(inputs);
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  const int oh = grad_out.dim(1), ow = grad_out.dim(2);
  Tensor grad_in({n, h, w, c});
  for (int img = 0; img < n; ++img) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        for (int ci = 0; ci < c; ++ci) {
          // Route the gradient to the argmax of the window.
          float best = -std::numeric_limits<float>::infinity();
          int by = 0, bx = 0;
          for (int ky = 0; ky < pool_; ++ky) {
            for (int kx = 0; kx < pool_; ++kx) {
              const float v =
                  in.at(img, y * stride_ + ky, x * stride_ + kx, ci);
              if (v > best) {
                best = v;
                by = ky;
                bx = kx;
              }
            }
          }
          grad_in.at(img, y * stride_ + by, x * stride_ + bx, ci) +=
              grad_out.at(img, y, x, ci);
        }
      }
    }
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_in));
  return grads;
}

Tensor AvgPool::forward(std::span<const Tensor* const> inputs) const {
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "AvgPool");
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  const int oh = conv_out_extent(h, pool_, stride_, padding_);
  const int ow = conv_out_extent(w, pool_, stride_, padding_);
  const int pad_top =
      padding_ == Padding::Same ? same_pad_total(h, pool_, stride_) / 2 : 0;
  const int pad_left =
      padding_ == Padding::Same ? same_pad_total(w, pool_, stride_) / 2 : 0;
  Tensor out({n, oh, ow, c});  // zeroed: each pixel sums into it
  const std::size_t cs = static_cast<std::size_t>(c);
  for_rows(static_cast<std::size_t>(n) * oh, static_cast<std::size_t>(ow) * cs,
           [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const int y = static_cast<int>(r % oh);
      const float* src = in.raw() + r / oh * h * w * cs;
      for (int x = 0; x < ow; ++x) {
        float* o = out.raw() + (r * ow + x) * cs;
        int valid = 0;
        for (int ky = 0; ky < pool_; ++ky) {
          const int iy = y * stride_ - pad_top + ky;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < pool_; ++kx) {
            const int ix = x * stride_ - pad_left + kx;
            if (ix < 0 || ix >= w) continue;
            ++valid;
            const float* iv =
                src + (static_cast<std::size_t>(iy) * w + ix) * cs;
            for (std::size_t ci = 0; ci < cs; ++ci) o[ci] += iv[ci];
          }
        }
        const float inv = valid > 0 ? 1.0F / static_cast<float>(valid) : 0.0F;
        for (std::size_t ci = 0; ci < cs; ++ci) o[ci] *= inv;
      }
    }
  });
  return out;
}

Tensor GlobalAvgPool::forward(std::span<const Tensor* const> inputs) const {
  const Tensor& in = single_input(inputs);
  require_rank(in, 4, "GlobalAvgPool");
  const int n = in.dim(0), h = in.dim(1), w = in.dim(2), c = in.dim(3);
  Tensor out({n, c});  // zeroed: each image sums into its row
  const float inv = 1.0F / static_cast<float>(h * w);
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t pixels = static_cast<std::size_t>(h) * w;
  for_rows(static_cast<std::size_t>(n), pixels * cs,
           [&](std::size_t i0, std::size_t i1) {
    for (std::size_t img = i0; img < i1; ++img) {
      float* o = out.raw() + img * cs;
      const float* iv = in.raw() + img * pixels * cs;
      for (std::size_t p = 0; p < pixels; ++p, iv += cs) {
        for (std::size_t ci = 0; ci < cs; ++ci) o[ci] += iv[ci];
      }
      for (std::size_t ci = 0; ci < cs; ++ci) o[ci] *= inv;
    }
  });
  return out;
}

// --- Activations ---------------------------------------------------------------

Tensor ReLU::apply(Tensor x, std::span<const Tensor* const> rest,
                   std::span<const float> /*kernel*/) const {
  require_no_rest(rest);
  float* d = x.raw();
  for_rows(x.size(), 1, [d](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) d[i] = std::max(d[i], 0.0F);
  });
  return x;
}

std::vector<Tensor> ReLU::backward(std::span<const Tensor* const> inputs,
                                   const Tensor& grad_out) {
  const Tensor& in = single_input(inputs);
  Tensor grad_in = grad_out;
  auto gi = grad_in.data();
  auto iv = in.data();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    if (iv[i] <= 0.0F) gi[i] = 0.0F;
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_in));
  return grads;
}

Tensor ReLU6::apply(Tensor x, std::span<const Tensor* const> rest,
                    std::span<const float> /*kernel*/) const {
  require_no_rest(rest);
  float* d = x.raw();
  for_rows(x.size(), 1, [d](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) d[i] = std::clamp(d[i], 0.0F, 6.0F);
  });
  return x;
}

Tensor Softmax::apply(Tensor x, std::span<const Tensor* const> rest,
                      std::span<const float> /*kernel*/) const {
  require_no_rest(rest);
  require_rank(x, 2, "Softmax");
  const int n = x.dim(0), c = x.dim(1);
  for (int img = 0; img < n; ++img) {
    float* row = x.raw() + static_cast<std::size_t>(img) * c;
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0F;
    for (int j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0F / sum;
    for (int j = 0; j < c; ++j) row[j] *= inv;
  }
  return x;
}

// --- Shape ops --------------------------------------------------------------

Tensor Reshape::apply(Tensor x, std::span<const Tensor* const> rest,
                      std::span<const float> /*kernel*/) const {
  require_no_rest(rest);
  std::vector<int> shape;
  shape.push_back(x.dim(0));
  shape.insert(shape.end(), per_sample_.begin(), per_sample_.end());
  x.reshape(std::move(shape));
  return x;
}

Tensor Flatten::apply(Tensor x, std::span<const Tensor* const> rest,
                      std::span<const float> /*kernel*/) const {
  require_no_rest(rest);
  const int n = x.dim(0);
  const int features = static_cast<int>(x.size()) / std::max(n, 1);
  x.reshape({n, features});
  return x;
}

std::vector<Tensor> Flatten::backward(std::span<const Tensor* const> inputs,
                                      const Tensor& grad_out) {
  const Tensor& in = single_input(inputs);
  Tensor grad_in = grad_out;
  grad_in.reshape(in.shape());
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_in));
  return grads;
}

// --- BatchNorm ---------------------------------------------------------------

BatchNorm::BatchNorm(std::string name, int channels, float epsilon)
    : InPlaceLayer(std::move(name)), eps_(epsilon),
      gamma_(static_cast<std::size_t>(channels), 1.0F),
      beta_(static_cast<std::size_t>(channels), 0.0F),
      mean_(static_cast<std::size_t>(channels), 0.0F),
      var_(static_cast<std::size_t>(channels), 1.0F) {}

Tensor BatchNorm::forward(std::span<const Tensor* const> inputs,
                         std::span<const float> kernel) const {
  return apply(first_input(inputs), inputs.subspan(1), kernel);
}

Tensor BatchNorm::apply(Tensor x, std::span<const Tensor* const> rest,
                        std::span<const float> kernel) const {
  require_no_rest(rest);
  const std::span<const float> gamma =
      kernel.empty() ? std::span<const float>(gamma_) : kernel;
  const int c = x.shape().back();
  if (static_cast<std::size_t>(c) != gamma_.size()) {
    throw std::invalid_argument("BatchNorm channel mismatch");
  }
  // Fold to y = x*scale + shift once per call.
  std::vector<float> scale(gamma_.size());
  std::vector<float> shift(gamma_.size());
  for (std::size_t i = 0; i < gamma_.size(); ++i) {
    scale[i] = gamma[i] / std::sqrt(var_[i] + eps_);
    shift[i] = beta_[i] - mean_[i] * scale[i];
  }
  // NHWC: channels are innermost, so walk positions x channels.
  const std::size_t channels = gamma_.size();
  if (channels == 0) return x;
  float* d = x.raw();
  for_rows(x.size() / channels, channels, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      float* px = d + p * channels;
      for (std::size_t ch = 0; ch < channels; ++ch) {
        px[ch] = px[ch] * scale[ch] + shift[ch];
      }
    }
  });
  return x;
}

// --- Merging ------------------------------------------------------------------

Tensor Add::apply(Tensor x, std::span<const Tensor* const> rest,
                  std::span<const float> /*kernel*/) const {
  if (rest.empty()) throw std::invalid_argument("Add needs >= 2 inputs");
  for (const Tensor* rhs : rest) {
    if (rhs->shape() != x.shape()) {
      throw std::invalid_argument("Add shape mismatch");
    }
  }
  float* o = x.raw();
  for_rows(x.size(), 1, [&](std::size_t i0, std::size_t i1) {
    for (const Tensor* rhs : rest) {
      const float* r = rhs->raw();
      for (std::size_t i = i0; i < i1; ++i) o[i] += r[i];
    }
  });
  return x;
}

Tensor Concat::forward(std::span<const Tensor* const> inputs) const {
  if (inputs.empty()) throw std::invalid_argument("Concat needs inputs");
  const Tensor& first = *inputs[0];
  require_rank(first, 4, "Concat");
  const int n = first.dim(0), h = first.dim(1), w = first.dim(2);
  int total_c = 0;
  for (const Tensor* t : inputs) {
    require_rank(*t, 4, "Concat");
    if (t->dim(0) != n || t->dim(1) != h || t->dim(2) != w) {
      throw std::invalid_argument("Concat spatial mismatch");
    }
    total_c += t->dim(3);
  }
  // Every output pixel is the inputs' pixels back to back.
  Tensor out = Tensor::unfilled({n, h, w, total_c});
  for_rows(static_cast<std::size_t>(n) * h,
           static_cast<std::size_t>(w) * total_c,
           [&](std::size_t r0, std::size_t r1) {
    float* o = out.raw() + r0 * w * total_c;
    for (std::size_t p = r0 * w; p < r1 * w; ++p) {
      for (const Tensor* t : inputs) {
        const auto c = static_cast<std::size_t>(t->shape().back());
        std::memcpy(o, t->raw() + p * c, c * sizeof(float));
        o += c;
      }
    }
  });
  return out;
}

}  // namespace nocw::nn
