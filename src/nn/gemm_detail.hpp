// Internals of nn::gemm for tests and benches: the kernel at each vector
// width this build compiles, and which one gemm() runs on this host. Every
// width gives the same bits; only its speed differs.
#pragma once

#include <cstddef>
#include <span>

#include "nn/simd.hpp"

namespace nocw::nn::detail {

using GemmFn = void (*)(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        bool accumulate);

/// `run` has the same contract as nn::gemm.
using GemmKernel = WidthKernel<GemmFn>;

/// Every width this build compiles, narrowest first (vector_widths()).
std::span<const GemmKernel> gemm_kernels();

/// Vector width of the kernel gemm() runs: the widest the host supports.
std::size_t gemm_vector_bytes();

}  // namespace nocw::nn::detail
