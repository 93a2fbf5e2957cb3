#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_pool.hpp"

namespace nocw::nn {

namespace {

// Four floats: one SSE register on x86-64, one NEON register on AArch64.
// Kept at 16 bytes so no signature needs an ABI the baseline target lacks.
using V4 = float __attribute__((vector_size(16)));

constexpr std::size_t kMr = 6;    // rows of the register tile
constexpr std::size_t kNr = 8;    // columns of the register tile (two V4)
constexpr std::size_t kKc = 256;  // K panel; a packed B panel is 8 KiB
constexpr std::size_t kMc = 96;   // rows of one parallel task
constexpr std::size_t kNc = 128;  // columns of one parallel task

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }

/// C[r][0, kNr) = (load_c ? C[r] : 0) + sum over p < kc of A[r][p] * B[p]
/// for each row r in R. The tile lives in registers for the whole panel;
/// the folds over the row pack unroll the row loop at compile time. Each
/// step is a separately rounded multiply, then an add, in ascending p:
/// exactly the scalar `c = c + a * b` chain.
template <std::size_t... R>
void tile(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          std::size_t kc, float* c, std::size_t ldc, bool load_c) {
  V4 lo[] = {(load_c ? load4(c + R * ldc) : V4{})...};
  V4 hi[] = {(load_c ? load4(c + R * ldc + 4) : V4{})...};
  for (std::size_t p = 0; p < kc; ++p, b += ldb) {
    const V4 b0 = load4(b);
    const V4 b1 = load4(b + 4);
    const auto step = [&](std::size_t r) {
      const float av = a[r * lda + p];
      // Two statements, so Clang's default contraction (within one
      // expression) cannot fuse them into an FMA.
      const V4 m0 = b0 * av;
      const V4 m1 = b1 * av;
      lo[r] = lo[r] + m0;
      hi[r] = hi[r] + m1;
    };
    (step(R), ...);
  }
  (store4(c + R * ldc, lo[R]), ...);
  (store4(c + R * ldc + 4, hi[R]), ...);
}

using TileFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                        std::size_t, float*, std::size_t, bool);
/// kTiles[r] computes an r-row tile.
constexpr TileFn kTiles[kMr + 1] = {
    nullptr,          &tile<0>,          &tile<0, 1>,
    &tile<0, 1, 2>,   &tile<0, 1, 2, 3>, &tile<0, 1, 2, 3, 4>,
    &tile<0, 1, 2, 3, 4, 5>};

/// C[i0, i1) x [j0, j1). Per K panel and kNr-column strip, B is packed
/// into a contiguous zero-padded panel, then every row tile of the block
/// runs over it. A block with a single row tile reads full strips of B in
/// place, since packing would copy each element to use it once.
void gemm_block(const float* a, const float* b, float* c, std::size_t k,
                std::size_t n, std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t j1, bool accumulate) {
  alignas(16) float panel[kKc * kNr] = {};
  alignas(16) float edge[kMr * kNr] = {};
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t kc = std::min(kKc, k - p0);
    const bool load_c = accumulate || p0 > 0;
    for (std::size_t j = j0; j < j1; j += kNr) {
      const std::size_t nr = std::min(kNr, j1 - j);
      const float* bp = b + p0 * n + j;
      std::size_t ldb = n;
      if (nr < kNr || i1 - i0 > kMr) {
        for (std::size_t p = 0; p < kc; ++p) {
          std::memcpy(panel + p * kNr, bp + p * n, nr * sizeof(float));
          std::fill(panel + p * kNr + nr, panel + (p + 1) * kNr, 0.0F);
        }
        bp = panel;
        ldb = kNr;
      }
      for (std::size_t i = i0; i < i1; i += kMr) {
        const std::size_t mr = std::min(kMr, i1 - i);
        const float* ap = a + i * k + p0;
        float* cp = c + i * n + j;
        if (nr == kNr) {
          kTiles[mr](ap, k, bp, ldb, kc, cp, n, load_c);
          continue;
        }
        // Column edge: run the tile on a kNr-wide copy of C.
        for (std::size_t r = 0; r < mr && load_c; ++r) {
          std::memcpy(edge + r * kNr, cp + r * n, nr * sizeof(float));
        }
        kTiles[mr](ap, k, bp, ldb, kc, edge, kNr, load_c);
        for (std::size_t r = 0; r < mr; ++r) {
          std::memcpy(cp + r * n, edge + r * kNr, nr * sizeof(float));
        }
      }
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  const std::size_t mblocks = (m + kMc - 1) / kMc;
  const std::size_t nblocks = (n + kNc - 1) / kNc;
  global_pool().parallel_for(
      0, mblocks * nblocks, /*grain=*/1,
      [&](std::size_t t0, std::size_t t1, unsigned /*lane*/) {
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t i0 = (t / nblocks) * kMc;
          const std::size_t j0 = (t % nblocks) * kNc;
          gemm_block(a, b, c, k, n, i0, std::min(i0 + kMc, m), j0,
                     std::min(j0 + kNc, n), accumulate);
        }
      });
}

}  // namespace nocw::nn
