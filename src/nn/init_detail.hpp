// Internals of nn::init_layer's Laplacian fill for tests and benches: the
// draw-to-weight transform at each vector width this build compiles, and the
// chunked fill that runs one of them. Every width gives the same bits; only
// its speed differs.
#pragma once

#include <cstddef>
#include <span>

#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace nocw::nn::detail {

/// Weights are drawn and transformed in blocks of this many.
inline constexpr std::size_t kLaplacianBlock = 256;

/// out[j] = float(±b·(−log(1 − 2|u[j]|))), signed like u[j], for
/// j < n <= kLaplacianBlock: the weight of the draw u[j] = uniform() − 0.5,
/// bit for bit what the scalar std::log expression gives. Returns 1 when
/// the rounding guard sent the block to that scalar expression, else 0.
using LaplacianFn = std::size_t (*)(const double* u, std::size_t n, double b,
                                    float* out);
using LaplacianKernel = WidthKernel<LaplacianFn>;

/// Every width this build compiles, narrowest first (vector_widths()).
std::span<const LaplacianKernel> laplacian_kernels();

/// Fills `kernel` with the next kernel.size() draws of `rng` through
/// `transform`, in parallel 2^16-weight chunks, and leaves `rng` just past
/// the last one, as init_layer does with the widest supported transform.
/// Returns the number of blocks the guard sent to the scalar path.
std::size_t fill_laplacian(std::span<float> kernel, double b,
                           Xoshiro256pp& rng,
                           const LaplacianKernel& transform);

}  // namespace nocw::nn::detail
