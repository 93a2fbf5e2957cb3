#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "gemm_reference.hpp"
#include "nn/gemm_detail.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {
namespace {

/// `count` normal values, `zero_fraction` of them exact zeros.
std::vector<float> random_matrix(Xoshiro256pp& rng, std::size_t count,
                                 double zero_fraction) {
  std::vector<float> v(count);
  for (auto& x : v) {
    x = rng.uniform() < zero_fraction ? 0.0F
                                      : static_cast<float>(rng.normal());
  }
  return v;
}

TEST(Gemm, Identity) {
  const std::vector<float> eye{1, 0, 0, 1};
  const std::vector<float> x{3, 4, 5, 6};
  std::vector<float> y(4);
  gemm(eye.data(), x.data(), y.data(), 2, 2, 2);
  EXPECT_EQ(y, x);
}

TEST(Gemm, KnownSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(Gemm, AccumulateAddsToExisting) {
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 1, 1, 1};
  std::vector<float> c{10, 10, 10, 10};
  gemm(a.data(), b.data(), c.data(), 2, 2, 2, /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{11, 11, 11, 11}));
}

TEST(Gemm, NonAccumulateOverwrites) {
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{1, 1, 1, 1};
  std::vector<float> c{99, 99, 99, 99};
  gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<float>{1, 1, 1, 1}));
}

TEST(Gemm, MatchesNaiveAcrossShapes) {
  // The kernel tiles C in 6 x 8 register tiles, 256-deep K panels and
  // 96 x 128 parallel blocks. The shapes cover every edge of that tiling:
  // m and n off the tile, k across panel boundaries, m <= 6 (m = 1 and 6,
  // B read in place), n < 8 (LeNet's n = 6, the matrix-vector n = 1) and
  // one row or column past a block. Every shape runs with dense A and with
  // A half exact zeros (im2col padding, post-ReLU inputs), and both from
  // +0 and accumulating into existing C.
  Xoshiro256pp rng(201);
  const std::size_t shapes[][3] = {
      {1, 1, 1},     {1, 7, 5},      {5, 1, 3},      {3, 3, 3},
      {17, 33, 9},   {64, 256, 8},   {65, 257, 31},  {128, 300, 70},
      {1, 400, 120}, {6, 513, 37},   {7, 256, 8},    {784, 25, 6},
      {37, 101, 1},  {6, 1000, 1},   {97, 255, 257}, {200, 260, 300}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    for (const double zeros : {0.0, 0.5}) {
      for (const bool accumulate : {false, true}) {
        const auto a = random_matrix(rng, m * k, zeros);
        const auto b = random_matrix(rng, k * n, 0.0);
        std::vector<float> c = random_matrix(rng, m * n, 0.0);
        std::vector<float> ref = c;
        gemm(a.data(), b.data(), c.data(), m, k, n, accumulate);
        reference_gemm(a.data(), b.data(), ref.data(), m, k, n, accumulate);
        ASSERT_TRUE(bitwise_equal(c, ref))
            << "shape " << m << "x" << k << "x" << n << " zeros " << zeros
            << " accumulate " << accumulate;
      }
    }
  }
}

TEST(Gemm, EveryVectorWidthMatchesNaive) {
  // One kernel template at 16-, 32- and 64-byte vectors, so 8-, 16- and
  // 32-column register tiles. Every width the host runs gives the naive
  // loop's bits: n on and around each tile width and past a 128-column
  // block, m on and around the 6-row tile (m <= 6 reads B in place) and
  // past a 96-row block, k across the 256-deep panel.
  std::string skipped;
  const auto kernels = runnable_kernels(detail::gemm_kernels(), skipped);
  Xoshiro256pp rng(204);
  for (const std::size_t n : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 129}) {
    for (const std::size_t m : {1, 5, 6, 7, 97}) {
      for (const std::size_t k : {1, 255, 256, 257}) {
        for (const double zeros : {0.0, 0.5}) {
          for (const bool accumulate : {false, true}) {
            const auto a = random_matrix(rng, m * k, zeros);
            const auto b = random_matrix(rng, k * n, 0.0);
            const auto c0 = random_matrix(rng, m * n, 0.0);
            std::vector<float> ref = c0;
            reference_gemm(a.data(), b.data(), ref.data(), m, k, n,
                           accumulate);
            for (const auto& kernel : kernels) {
              std::vector<float> c = c0;
              kernel.run(a.data(), b.data(), c.data(), m, k, n, accumulate);
              ASSERT_TRUE(bitwise_equal(c, ref))
                  << kernel.isa << "/" << kernel.vector_bytes << "B shape "
                  << m << "x" << k << "x" << n << " zeros " << zeros
                  << " accumulate " << accumulate;
            }
          }
        }
      }
    }
  }
  if (!skipped.empty()) GTEST_SKIP() << "not run: " << skipped;
}

TEST(Gemm, SelectsWidestSupportedWidth) {
  // gemm() runs the widest kernel the CPU supports, and gemm_kernels()
  // always holds the 16-byte baseline, which every host runs.
  const auto kernels = detail::gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front().vector_bytes, 16U);
  EXPECT_TRUE(kernels.front().supported);
  std::size_t widest = 0;
  for (const auto& g : kernels) {
    if (g.supported) widest = g.vector_bytes;
  }
  EXPECT_EQ(detail::gemm_vector_bytes(), widest);
}

TEST(Gemm, ZeroRowsInAAreSkippedCorrectly) {
  // Exact zeros in A (im2col padding) take no special path. The result is
  // still the reference bit for bit, and an all-zero row of A gives a row
  // of +0 in C.
  Xoshiro256pp rng(202);
  const std::size_t m = 9, k = 40, n = 13, zero_row = 4;
  std::vector<float> a(m * k, 0.0F), b(k * n), c(m * n, -1.0F), ref(m * n);
  for (std::size_t i = 0; i < a.size(); i += 3) {
    if (i / k != zero_row) a[i] = static_cast<float>(rng.normal());
  }
  for (auto& v : b) v = static_cast<float>(rng.normal());
  gemm(a.data(), b.data(), c.data(), m, k, n);
  reference_gemm(a.data(), b.data(), ref.data(), m, k, n, false);
  ASSERT_TRUE(bitwise_equal(c, ref));
  const std::vector<float> zeros(n, 0.0F);
  EXPECT_TRUE(bitwise_equal(
      std::span<const float>(c).subspan(zero_row * n, n), zeros));
}

TEST(Gemv, MatchesGemmSingleColumn) {
  // A matrix-vector product is gemm's single-column case.
  Xoshiro256pp rng(203);
  const std::size_t m = 37, k = 101;
  std::vector<float> a(m * k), x(k), y(m, -1.0F), ref(m);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  gemm(a.data(), x.data(), y.data(), m, k, 1);
  reference_gemm(a.data(), x.data(), ref.data(), m, k, 1, false);
  EXPECT_TRUE(bitwise_equal(y, ref));
}

TEST(Gemv, Accumulate) {
  const std::vector<float> a{1, 2};
  const std::vector<float> x{3, 4};
  std::vector<float> y{100};
  gemm(a.data(), x.data(), y.data(), 1, 2, 1, /*accumulate=*/true);
  EXPECT_EQ(y[0], 111.0F);
}

// A layer fed by a KernelSource multiplies B one K-row panel at a time,
// overwriting C with the first and accumulating the rest. That is the
// one-call product bit for bit because every C element is the chain
// c = c + a * b in ascending k: splitting K only stores and reloads c
// between links. Slice widths straddle the kernel's 256-deep K panel and
// include the streamed panel height; A's column slice is copied, as
// gemm_panels does.
TEST(Gemm, KSlicedAccumulateMatchesOneCall) {
  constexpr std::size_t k = 520;
  const unsigned before = global_thread_count();
  Xoshiro256pp rng(311);
  for (const unsigned threads : {1U, 2U, 8U}) {
    set_global_threads(threads);
    for (const std::size_t m : {1, 6, 7, 97}) {
      for (const std::size_t n : {1, 8, 33, 4096}) {
        const auto a = random_matrix(rng, m * k, 0.25);
        const auto b = random_matrix(rng, k * n, 0.0);
        std::vector<float> whole(m * n);
        gemm(a.data(), b.data(), whole.data(), m, k, n);
        for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                        std::size_t{255}, std::size_t{256},
                                        std::size_t{257}, kPanelRows}) {
          std::vector<float> sliced(m * n, -1.0F);
          std::vector<float> a_slice;
          for (std::size_t k0 = 0; k0 < k; k0 += width) {
            const std::size_t kp = std::min(width, k - k0);
            a_slice.resize(m * kp);
            for (std::size_t r = 0; r < m; ++r) {
              std::copy_n(a.begin() + static_cast<std::ptrdiff_t>(r * k + k0),
                          kp, a_slice.begin() +
                                  static_cast<std::ptrdiff_t>(r * kp));
            }
            gemm(a_slice.data(), b.data() + k0 * n, sliced.data(), m, kp, n,
                 /*accumulate=*/k0 > 0);
          }
          ASSERT_TRUE(bitwise_equal(sliced, whole))
              << "threads " << threads << " m " << m << " n " << n
              << " slice " << width;
        }
      }
    }
  }
  set_global_threads(before);
}

TEST(Gemm, EmptyKZeroesOrKeepsC) {
  const float a[1] = {};
  const float b[1] = {};
  std::vector<float> c{3, 4, 5, 6};
  gemm(a, b, c.data(), 2, 0, 2, /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{3, 4, 5, 6}));
  gemm(a, b, c.data(), 2, 0, 2);
  EXPECT_EQ(c, (std::vector<float>{0, 0, 0, 0}));
}

}  // namespace
}  // namespace nocw::nn
