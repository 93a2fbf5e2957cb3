#include "nn/init.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "nn/init_detail.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {

namespace {

// Weights per generation chunk. A constant, so chunk boundaries (and with
// them the work split) never depend on the thread count.
constexpr std::size_t kLaplacianChunk = std::size_t{1} << 16;

// Draws per block: drawn serially, then transformed in vectors, with one
// guard decision per block.
constexpr std::size_t kBlock = detail::kLaplacianBlock;

/// The defining transform of draws u (uniform() - 0.5) into weights, one
/// std::log per weight. The vector path hands it any block its rounding
/// guard rejects.
void scalar_laplacian(const double* u, std::size_t n, double b_scale,
                      float* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const double mag = -b_scale * std::log(1.0 - 2.0 * std::abs(u[j]));
    out[j] = static_cast<float>(u[j] < 0 ? -mag : mag);
  }
}

// The vector transform. W bytes of doubles, the same lanes as bits, and
// the floats they round to; a cast between two vector types of one size
// keeps the bits. Everything below is always inlined into the per-width
// functions further down, so it is compiled for their target; vectors only
// pass by reference, so no call needs a vector ABI the baseline target
// lacks.
template <std::size_t W>
using VD = detail::Vec<double, W>;
template <std::size_t W>
using VU = detail::Vec<std::uint64_t, W>;
template <std::size_t W>
using VF = detail::Vec<float, W / 2>;

/// log(t) per lane for normal t > 0: fdlibm's __ieee754_log without its
/// branches. t = 2^k (1 + f) with 1 + f in [sqrt(1/2), sqrt(2)), then
/// log(1 + f) = f - hfsq + s (hfsq + R(s^2)) with s = f / (2 + f) and R the
/// Lg1..Lg7 polynomial. Within a few ulp of the true log, which is all the
/// rounding guard needs; it is not libm's log bit for bit.
template <std::size_t W>
[[gnu::always_inline]] inline void log_lanes(VD<W>& out, const VD<W>& t) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const VU<W> bits = (VU<W>)t;
  VU<W> hx = bits >> 32;
  // The exponent k in two's complement (t < 1 gives k < 0).
  VU<W> k = (hx >> 20) - 1023;
  hx &= 0xfffffU;
  // i = 2^20 when the mantissa is at or above sqrt(2): halve x, bump k.
  const VU<W> i = (hx + 0x95f64U) & 0x100000U;
  k += i >> 20;
  const VD<W> x =
      (VD<W>)(((hx | (i ^ 0x3ff00000U)) << 32) | (bits & 0xffffffffU));
  const VD<W> f = x - 1.0;
  // k as a double: add it to the bits of 1.5 * 2^52, whose unit is 1.
  const VD<W> dk = (VD<W>)(k + 0x4338000000000000U) - 0x1.8p52;
  const VD<W> s = f / (2.0 + f);
  const VD<W> z = s * s;
  const VD<W> w = z * z;
  const VD<W> t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const VD<W> t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const VD<W> r = t2 + t1;
  const VD<W> hfsq = 0.5 * f * f;
  out = dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

/// out[j] for one full block of draws, unless the block must go to the
/// scalar path: then false, with out partly written. The rounding guard:
/// each weight m is also rounded as m (1 - 2^-40) and m (1 + 2^-40). When
/// those two floats agree, every double in between rounds to them too
/// (rounding is monotone), and that includes the scalar path's m for any
/// libm log within a few ulp, whose m is within about 2^-50 of this one.
/// t < 2^-1000 catches u = -0.5 (log 0 = -inf), the one t that is not a
/// normal double.
template <std::size_t W>
[[gnu::always_inline]] inline bool laplacian_block(const double* u,
                                                   double b_scale,
                                                   float* out) {
  constexpr std::size_t kL = W / sizeof(double);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  // Lane masks, typed as the comparisons give them.
  decltype(VF<W>{} != VF<W>{}) off_grid = {};
  decltype(VD<W>{} < VD<W>{}) log_zero = {};
  for (std::size_t j = 0; j < kBlock; j += kL) {
    VD<W> uv;
    std::memcpy(&uv, u + j, sizeof uv);
    const VU<W> ubits = (VU<W>)uv;
    const VD<W> t = 1.0 - 2.0 * (VD<W>)(ubits & ~kSign);
    VD<W> lg;
    log_lanes<W>(lg, t);
    const VD<W> mag = -b_scale * lg;
    // u < 0 ? -mag : mag, by the sign bit (u is never -0).
    const VD<W> m = (VD<W>)((VU<W>)mag ^ (ubits & kSign));
    const VF<W> w = __builtin_convertvector(m, VF<W>);
    const VF<W> lo = __builtin_convertvector(m * (1.0 - 0x1p-40), VF<W>);
    const VF<W> hi = __builtin_convertvector(m * (1.0 + 0x1p-40), VF<W>);
    off_grid |= lo != hi;
    log_zero |= t < 0x1p-1000;
    std::memcpy(out + j, &w, sizeof w);
  }
  bool reject = false;
  for (std::size_t l = 0; l < kL; ++l) {
    reject = reject || off_grid[l] != 0 || log_zero[l] != 0;
  }
  return !reject;
}

/// The LaplacianFn contract at width W for n <= kBlock draws; a short
/// block runs padded with u = 0.
template <std::size_t W>
[[gnu::always_inline]] inline std::size_t laplacian(const double* u,
                                                    std::size_t n,
                                                    double b_scale,
                                                    float* out) {
  alignas(64) double pad[kBlock];
  alignas(64) float part[kBlock];
  const double* src = u;
  float* dst = out;
  if (n < kBlock) {
    std::copy_n(u, n, pad);
    std::fill(pad + n, pad + kBlock, 0.0);
    src = pad;
    dst = part;
  }
  std::size_t fallbacks = 0;
  if (!laplacian_block<W>(src, b_scale, dst)) {
    scalar_laplacian(src, n, b_scale, dst);
    fallbacks = 1;
  }
  if (n < kBlock) std::copy_n(part, n, out);
  return fallbacks;
}

// One compiled transform per width; the wider ones carry the target their
// vectors need.
std::size_t laplacian16(const double* u, std::size_t n, double b_scale,
                        float* out) {
  return laplacian<16>(u, n, b_scale, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) std::size_t laplacian32(const double* u,
                                                        std::size_t n,
                                                        double b_scale,
                                                        float* out) {
  return laplacian<32>(u, n, b_scale, out);
}

__attribute__((target("avx512f"))) std::size_t laplacian64(
    const double* u, std::size_t n, double b_scale, float* out) {
  return laplacian<64>(u, n, b_scale, out);
}
#endif

struct Fan {
  double in = 1.0;
  double out = 1.0;
};

Fan fan_of(Layer& layer) {
  switch (layer.type()) {
    case LayerType::Conv2D: {
      auto& c = static_cast<Conv2D&>(layer);
      const double window = static_cast<double>(c.kernel_h()) * c.kernel_w();
      return {window * c.in_channels(), window * c.out_channels()};
    }
    case LayerType::DepthwiseConv2D: {
      auto& c = static_cast<DepthwiseConv2D&>(layer);
      const double window = static_cast<double>(c.kernel_h()) * c.kernel_w();
      return {window, window};
    }
    case LayerType::Dense: {
      auto& d = static_cast<Dense&>(layer);
      return {static_cast<double>(d.in_features()),
              static_cast<double>(d.out_features())};
    }
    default:
      return {};
  }
}

}  // namespace

namespace detail {

std::span<const LaplacianKernel> laplacian_kernels() {
#if defined(__x86_64__)
  static const auto kernels =
      at_widths<LaplacianFn>({&laplacian16, &laplacian32, &laplacian64});
#else
  static const auto kernels = at_widths<LaplacianFn>({&laplacian16});
#endif
  return kernels;
}

// Laplacian draws with the fan-scaled scale b. Weight i takes the i-th draw
// of `rng`'s stream (one draw per weight), so chunk c starts exactly
// c * kLaplacianChunk draws ahead: the starts are jumped to serially, the
// chunks filled on the pool, and `rng` is left just past the last weight,
// as a serial fill would leave it. Within a chunk, each block of draws is
// taken serially, then transformed.
std::size_t fill_laplacian(std::span<float> kernel, double b_scale,
                           Xoshiro256pp& rng,
                           const LaplacianKernel& transform) {
  if (kernel.empty()) return 0;
  static const Xoshiro256pp::Jump kChunkJump(kLaplacianChunk);
  const std::size_t chunks =
      (kernel.size() + kLaplacianChunk - 1) / kLaplacianChunk;
  std::vector<Xoshiro256pp> starts(chunks, rng);
  for (std::size_t c = 1; c < chunks; ++c) {
    kChunkJump.apply(starts[c] = starts[c - 1]);
  }
  std::atomic<std::size_t> fallbacks{0};
  global_pool().parallel_for(
      0, chunks, 1, [&](std::size_t first, std::size_t last, unsigned) {
        for (std::size_t c = first; c < last; ++c) {
          Xoshiro256pp draws = starts[c];
          const std::size_t end =
              std::min(kernel.size(), (c + 1) * kLaplacianChunk);
          std::size_t chunk_fallbacks = 0;
          alignas(64) double u[kBlock];
          for (std::size_t i = c * kLaplacianChunk; i < end; i += kBlock) {
            const std::size_t len = std::min(kBlock, end - i);
            for (std::size_t j = 0; j < len; ++j) u[j] = draws.uniform() - 0.5;
            chunk_fallbacks +=
                transform.run(u, len, b_scale, kernel.data() + i);
          }
          fallbacks.fetch_add(chunk_fallbacks, std::memory_order_relaxed);
          if (c + 1 == chunks) rng = draws;
        }
      });
  return fallbacks.load(std::memory_order_relaxed);
}

}  // namespace detail

void init_layer(Layer& layer, Xoshiro256pp& rng, InitScheme scheme,
                InitDistribution dist) {
  if (layer.type() == LayerType::BatchNorm) {
    auto& bn = static_cast<BatchNorm&>(layer);
    for (auto& g : bn.kernel()) g = static_cast<float>(rng.normal(1.0, 0.08));
    for (auto& b : bn.bias()) b = static_cast<float>(rng.normal(0.0, 0.05));
    for (auto& m : bn.moving_mean()) {
      m = static_cast<float>(rng.normal(0.0, 0.1));
    }
    for (auto& v : bn.moving_var()) {
      v = static_cast<float>(std::abs(rng.normal(1.0, 0.1)) + 0.1);
    }
    return;
  }
  const Fan fan = fan_of(layer);
  const double stddev =
      scheme == InitScheme::HeNormal
          ? std::sqrt(2.0 / fan.in)
          : std::sqrt(2.0 / (fan.in + fan.out));
  if (dist == InitDistribution::Gaussian) {
    for (auto& w : layer.kernel()) {
      w = static_cast<float>(rng.normal(0.0, stddev));
    }
  } else {
    // Laplacian with the same fan-scaled stddev (see InitDistribution docs).
    detail::fill_laplacian(
        layer.kernel(), stddev / std::sqrt(2.0), rng,
        detail::laplacian_kernels()[detail::widest_width()]);
  }
  for (auto& b : layer.bias()) b = 0.0F;
}

void init_graph(Graph& graph, std::uint64_t seed, InitScheme scheme,
                InitDistribution dist) {
  Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    init_layer(graph.layer(static_cast<int>(i)), rng, scheme, dist);
  }
}

}  // namespace nocw::nn
