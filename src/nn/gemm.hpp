// Multi-threaded GEMM for the conv/dense layers in the zoo.
//
// C[M x N] (+)= A[M x K] * B[K x N], all row-major. One kernel template,
// compiled at three GCC/Clang vector widths: 16 bytes (SSE2 on x86-64, NEON
// on AArch64), and on x86-64 also 32 bytes (AVX2) and 64 bytes (AVX-512F)
// through function target attributes, with no -march. gemm() runs the widest
// one the CPU supports, chosen once. A 6-row x 2-vector tile of C (8, 16 or
// 32 columns) stays in registers across a 256-deep K panel of B, which is
// packed into a contiguous strip of the tile's width first. C is stored and
// reloaded between panels, so every element is still the chain
// c = c + a * b in ascending k, one rounded multiply and one rounded add per
// step, starting from +0 (or from C when accumulating); nocw_nn builds with
// -ffp-contract=off, so no FMA fuses them. The result is therefore
// bit-identical to the naive triple loop, whatever the vector width, tiling
// or NOCW_THREADS. Adding a zero product never changes a C that started at
// +0, so exact zeros in A (im2col padding, post-ReLU inputs) need no special
// path when B is finite. Work is split over 96-row x 128-column blocks of C,
// so a 6-row Dense layer still uses every lane. im2col lays patches out so
// conv is exactly this product.
#pragma once

#include <cstddef>

namespace nocw::nn {

/// C = A*B (accumulate = false) or C += A*B (accumulate = true).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate = false);

}  // namespace nocw::nn
