// Multi-threaded GEMM for the conv/dense layers in the zoo.
//
// C[M x N] (+)= A[M x K] * B[K x N], all row-major. A 6 x 8 tile of C stays
// in registers (GCC/Clang 16-byte vectors, SSE2 on x86-64) across a
// 256-deep K panel of B, which is packed into a contiguous 8-column strip
// first. C is stored and reloaded between panels, so every element is still
// the chain c = c + a * b in ascending k, one rounded multiply and one
// rounded add per step, starting from +0 (or from C when accumulating). The
// result is therefore bit-identical to the naive triple loop, whatever the
// tiling or NOCW_THREADS. Adding a zero product never changes a C that
// started at +0, so exact zeros in A (im2col padding, post-ReLU inputs)
// need no special path when B is finite. Work is split over 96-row x
// 128-column blocks of C, so a 6-row Dense layer still uses every lane.
// im2col lays patches out so conv is exactly this product.
#pragma once

#include <cstddef>

namespace nocw::nn {

/// C = A*B (accumulate = false) or C += A*B (accumulate = true).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate = false);

}  // namespace nocw::nn
