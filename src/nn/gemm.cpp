#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "nn/gemm_detail.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {

namespace {

/// W bytes of floats (nn/simd.hpp).
template <std::size_t W>
using V = detail::Vec<float, W>;

constexpr std::size_t kMr = 6;    // rows of the register tile
constexpr std::size_t kKc = 256;  // K panel
constexpr std::size_t kMc = 96;   // rows of one parallel task
constexpr std::size_t kNc = 128;  // columns of one parallel task

/// Floats per vector, and columns of the register tile (two vectors).
template <std::size_t W>
constexpr std::size_t kLanes = W / sizeof(float);
template <std::size_t W>
constexpr std::size_t kNr = 2 * kLanes<W>;

// Everything up to gemm_block is always inlined into the per-width block
// functions further down, so it is compiled for their target, at -O0 too.
// Vectors only pass by reference, so no call needs a vector ABI the
// baseline target lacks.

template <std::size_t W>
[[gnu::always_inline]] inline void load(V<W>& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

template <std::size_t W>
[[gnu::always_inline]] inline void store(float* p, const V<W>& v) {
  std::memcpy(p, &v, sizeof v);
}

/// One row of one k step: lo/hi += b0/b1 * av. Two statements, so no
/// contraction that stays within one expression (Clang's default) can fuse
/// them into an FMA; the build turns off contraction across statements.
template <std::size_t W>
[[gnu::always_inline]] inline void step(V<W>& lo, V<W>& hi, const V<W>& b0,
                                        const V<W>& b1, float av) {
  const V<W> m0 = b0 * av;
  const V<W> m1 = b1 * av;
  lo = lo + m0;
  hi = hi + m1;
}

/// C[r][0, kNr) = (load_c ? C[r] : 0) + sum over p < kc of A[r][p] * B[p]
/// for each row r in R. The tile lives in registers for the whole panel;
/// the folds over the row pack unroll the row loop at compile time. Each
/// step is a separately rounded multiply, then an add, in ascending p:
/// exactly the scalar `c = c + a * b` chain.
template <std::size_t W, std::size_t... R>
[[gnu::always_inline]] inline void tile(const float* a, std::size_t lda,
                                        const float* b, std::size_t ldb,
                                        std::size_t kc, float* c,
                                        std::size_t ldc, bool load_c) {
  constexpr std::size_t kL = kLanes<W>;
  V<W> lo[sizeof...(R)] = {};
  V<W> hi[sizeof...(R)] = {};
  if (load_c) {
    (load<W>(lo[R], c + R * ldc), ...);
    (load<W>(hi[R], c + R * ldc + kL), ...);
  }
  for (std::size_t p = 0; p < kc; ++p, b += ldb) {
    V<W> b0;
    V<W> b1;
    load<W>(b0, b);
    load<W>(b1, b + kL);
    (step<W>(lo[R], hi[R], b0, b1, a[R * lda + p]), ...);
  }
  (store<W>(c + R * ldc, lo[R]), ...);
  (store<W>(c + R * ldc + kL, hi[R]), ...);
}

/// The tile for mr (1..kMr) rows.
template <std::size_t W>
[[gnu::always_inline]] inline void tile_rows(std::size_t mr, const float* a,
                                             std::size_t lda, const float* b,
                                             std::size_t ldb, std::size_t kc,
                                             float* c, std::size_t ldc,
                                             bool load_c) {
  switch (mr) {
    case 1: tile<W, 0>(a, lda, b, ldb, kc, c, ldc, load_c); break;
    case 2: tile<W, 0, 1>(a, lda, b, ldb, kc, c, ldc, load_c); break;
    case 3: tile<W, 0, 1, 2>(a, lda, b, ldb, kc, c, ldc, load_c); break;
    case 4: tile<W, 0, 1, 2, 3>(a, lda, b, ldb, kc, c, ldc, load_c); break;
    case 5: tile<W, 0, 1, 2, 3, 4>(a, lda, b, ldb, kc, c, ldc, load_c); break;
    default:
      tile<W, 0, 1, 2, 3, 4, 5>(a, lda, b, ldb, kc, c, ldc, load_c);
      break;
  }
}

/// C[i0, i1) x [j0, j1). Per K panel and kNr-column strip, B is packed
/// into a contiguous zero-padded panel, then every row tile of the block
/// runs over it. A block with a single row tile reads full strips of B in
/// place, since packing would copy each element to use it once.
template <std::size_t W>
[[gnu::always_inline]] inline void gemm_block(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    bool accumulate) {
  constexpr std::size_t nr_full = kNr<W>;
  alignas(64) float panel[kKc * nr_full] = {};
  alignas(64) float edge[kMr * nr_full] = {};
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t kc = std::min(kKc, k - p0);
    const bool load_c = accumulate || p0 > 0;
    for (std::size_t j = j0; j < j1; j += nr_full) {
      const std::size_t nr = std::min(nr_full, j1 - j);
      const float* bp = b + p0 * n + j;
      std::size_t ldb = n;
      if (nr < nr_full || i1 - i0 > kMr) {
        for (std::size_t p = 0; p < kc; ++p) {
          std::memcpy(panel + p * nr_full, bp + p * n, nr * sizeof(float));
          std::fill(panel + p * nr_full + nr, panel + (p + 1) * nr_full,
                    0.0F);
        }
        bp = panel;
        ldb = nr_full;
      }
      for (std::size_t i = i0; i < i1; i += kMr) {
        const std::size_t mr = std::min(kMr, i1 - i);
        const float* ap = a + i * k + p0;
        float* cp = c + i * n + j;
        if (nr == nr_full) {
          tile_rows<W>(mr, ap, k, bp, ldb, kc, cp, n, load_c);
          continue;
        }
        // Column edge: run the tile on a kNr-wide copy of C.
        for (std::size_t r = 0; r < mr && load_c; ++r) {
          std::memcpy(edge + r * nr_full, cp + r * n, nr * sizeof(float));
        }
        tile_rows<W>(mr, ap, k, bp, ldb, kc, edge, nr_full, load_c);
        for (std::size_t r = 0; r < mr; ++r) {
          std::memcpy(cp + r * n, edge + r * nr_full, nr * sizeof(float));
        }
      }
    }
  }
}

using BlockFn = void (*)(const float*, const float*, float*, std::size_t,
                         std::size_t, std::size_t, std::size_t, std::size_t,
                         std::size_t, bool);

// One compiled block function per width; the wider ones carry the target
// their vectors need.
void block16(const float* a, const float* b, float* c, std::size_t k,
             std::size_t n, std::size_t i0, std::size_t i1, std::size_t j0,
             std::size_t j1, bool accumulate) {
  gemm_block<16>(a, b, c, k, n, i0, i1, j0, j1, accumulate);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void block32(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    bool accumulate) {
  gemm_block<32>(a, b, c, k, n, i0, i1, j0, j1, accumulate);
}

__attribute__((target("avx512f"))) void block64(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
    bool accumulate) {
  gemm_block<64>(a, b, c, k, n, i0, i1, j0, j1, accumulate);
}
#endif

/// C (+)= A*B with `block` over 96 x 128 blocks of C, one parallel task
/// each.
template <BlockFn block>
void gemm_with(const float* a, const float* b, float* c, std::size_t m,
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
          block(a, b, c, k, n, i0, std::min(i0 + kMc, m), j0,
                std::min(j0 + kNc, n), accumulate);
        }
      });
}

/// The widest kernel the host supports.
const detail::GemmKernel& selected() {
  return detail::gemm_kernels()[detail::widest_width()];
}

}  // namespace

namespace detail {

std::span<const GemmKernel> gemm_kernels() {
#if defined(__x86_64__)
  static const auto kernels = at_widths<GemmFn>(
      {&gemm_with<&block16>, &gemm_with<&block32>, &gemm_with<&block64>});
#else
  static const auto kernels = at_widths<GemmFn>({&gemm_with<&block16>});
#endif
  return kernels;
}

std::size_t gemm_vector_bytes() { return selected().vector_bytes; }

}  // namespace detail

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate) {
  selected().run(a, b, c, m, k, n, accumulate);
}

}  // namespace nocw::nn
