// The parallel kernels promise bit-identical results for any thread count.
// These tests pin that contract: reference outputs computed at 1 thread must
// match exactly (EXPECT_EQ on floats, not EXPECT_NEAR) at 2 and 8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gemm_reference.hpp"
#include "init_reference.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_detail.hpp"
#include "nn/init.hpp"
#include "nn/init_detail.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              double zero_fraction = 0.0) {
  Xoshiro256pp rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.uniform() < zero_fraction ? 0.0F
                                      : static_cast<float>(rng.normal());
  }
  return v;
}

// Every parameter of the graph in node order: kernel, bias and, for
// BatchNorm, the moving statistics.
std::vector<float> all_params(Graph& g) {
  std::vector<float> out;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    Layer& layer = g.layer(static_cast<int>(i));
    out.insert(out.end(), layer.kernel().begin(), layer.kernel().end());
    out.insert(out.end(), layer.bias().begin(), layer.bias().end());
    if (layer.type() == LayerType::BatchNorm) {
      auto& bn = static_cast<BatchNorm&>(layer);
      out.insert(out.end(), bn.moving_mean().begin(), bn.moving_mean().end());
      out.insert(out.end(), bn.moving_var().begin(), bn.moving_var().end());
    }
  }
  return out;
}

// init_layer over the graph from `seed` (what init_graph does), returning
// the generator it leaves behind.
Xoshiro256pp init_layers(Graph& g, std::uint64_t seed, InitDistribution dist) {
  Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    init_layer(g.layer(static_cast<int>(i)), rng, InitScheme::GlorotNormal,
               dist);
  }
  return rng;
}

// Both generators produce the same next draws, cached normal included.
::testing::AssertionResult same_generator(Xoshiro256pp a, Xoshiro256pp b) {
  for (int i = 0; i < 3; ++i) {
    if (a.normal() != b.normal()) {
      return ::testing::AssertionFailure() << "normal draw " << i;
    }
  }
  for (int i = 0; i < 4; ++i) {
    if (a() != b()) return ::testing::AssertionFailure() << "raw draw " << i;
  }
  return ::testing::AssertionSuccess();
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }
};

TEST_F(ParallelDeterminism, GemmMatchesSerialAcrossThreadCounts) {
  // The naive serial reference, bit for bit, at every thread count. A is
  // half exact zeros. The shapes split into several 96 x 128 blocks of C
  // (150 rows; 300 columns) and give m <= 6 rows several column blocks (the
  // Dense-layer case).
  const std::size_t shapes[][3] = {
      {150, 64, 48}, {6, 300, 600}, {200, 260, 300}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(m * k, 1, 0.5);
    const auto b = random_vec(k * n, 2);
    std::vector<float> ref(m * n);
    reference_gemm(a.data(), b.data(), ref.data(), m, k, n, false);
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      std::vector<float> out(m * n, -1.0F);
      gemm(a.data(), b.data(), out.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(out, ref))
          << "shape " << m << "x" << k << "x" << n << " threads " << threads;
    }
  }
}

TEST_F(ParallelDeterminism, GemmEveryWidthMatchesSerial) {
  // Every vector width the host runs gives the naive serial loop's bits at
  // every thread count: several 96 x 128 blocks with column edges at each
  // tile width, the m <= 6 Dense case, and an accumulating product.
  std::string skipped;
  const auto kernels = runnable_kernels(detail::gemm_kernels(), skipped);
  const std::size_t shapes[][3] = {{150, 300, 270}, {6, 300, 601}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(m * k, 10, 0.5);
    const auto b = random_vec(k * n, 11);
    const auto base = random_vec(m * n, 12);
    for (const bool accumulate : {false, true}) {
      std::vector<float> ref = base;
      reference_gemm(a.data(), b.data(), ref.data(), m, k, n, accumulate);
      for (const auto& kernel : kernels) {
        for (unsigned threads : {1U, 2U, 8U}) {
          set_global_threads(threads);
          std::vector<float> out = base;
          kernel.run(a.data(), b.data(), out.data(), m, k, n, accumulate);
          ASSERT_TRUE(bitwise_equal(out, ref))
              << kernel.isa << "/" << kernel.vector_bytes << "B shape " << m
              << "x" << k << "x" << n << " accumulate " << accumulate
              << " threads " << threads;
        }
      }
    }
  }
  if (!skipped.empty()) GTEST_SKIP() << "not run: " << skipped;
}

TEST_F(ParallelDeterminism, GemmAccumulateMatchesSerial) {
  const std::size_t m = 70, k = 300, n = 270;
  const auto a = random_vec(m * k, 3);
  const auto b = random_vec(k * n, 4);
  const auto base = random_vec(m * n, 5);
  std::vector<float> ref = base;
  reference_gemm(a.data(), b.data(), ref.data(), m, k, n, true);
  for (unsigned threads : {1U, 2U, 8U}) {
    set_global_threads(threads);
    std::vector<float> out = base;
    gemm(a.data(), b.data(), out.data(), m, k, n, /*accumulate=*/true);
    ASSERT_TRUE(bitwise_equal(out, ref)) << "threads " << threads;
  }
}

TEST_F(ParallelDeterminism, GemmDenseAndSparseModesAgreeOnNonzeroData) {
  // The one kernel multiplies zero entries of A like any other. A sparse
  // product that skips them gives the same bits: on A with no zeros the
  // skip never fires, and on A with zeros each skipped product is +-0,
  // which cannot change a chain that starts at +0 when B is finite.
  const std::size_t m = 40, k = 31, n = 23;
  const auto b = random_vec(k * n, 7);
  for (const double zeros : {0.0, 0.3}) {
    const auto a = random_vec(m * k, 6, zeros);
    std::vector<float> sparse(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0F;
        for (std::size_t p = 0; p < k; ++p) {
          if (a[i * k + p] == 0.0F) continue;
          const float prod = a[i * k + p] * b[p * n + j];
          acc = acc + prod;
        }
        sparse[i * n + j] = acc;
      }
    }
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      std::vector<float> dense(m * n, -1.0F);
      gemm(a.data(), b.data(), dense.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(dense, sparse))
          << "zeros " << zeros << " threads " << threads;
    }
  }
}

TEST_F(ParallelDeterminism, GemvMatchesSerialAcrossThreadCounts) {
  // Matrix-vector products are gemm with n = 1 (or m = 1 for a row vector
  // times a matrix), with A 20% exact zeros.
  const std::size_t shapes[][3] = {{600, 37, 1}, {1, 37, 600}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(m * k, 8, 0.2);
    const auto x = random_vec(k * n, 9);
    std::vector<float> ref(m * n);
    reference_gemm(a.data(), x.data(), ref.data(), m, k, n, false);
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      std::vector<float> out(m * n, -1.0F);
      gemm(a.data(), x.data(), out.data(), m, k, n);
      ASSERT_TRUE(bitwise_equal(out, ref))
          << "shape " << m << "x" << k << "x" << n << " threads " << threads;
    }
  }
}

TEST_F(ParallelDeterminism, InitGraphMatchesSerialStream) {
  // Dense kernels of 0, 1, chunk - 1, chunk, chunk + 1 and a prime (2^17 - 1)
  // weights, with a BatchNorm between them, then three zoo models: LeNet-5
  // (Gaussian), AlexNet (multi-chunk Dense layers) and MobileNet (depthwise
  // and BatchNorm). Each case builds its graph through init_graph; the
  // weights, and the generator init_layer leaves behind, must equal the
  // serial reference at every thread count.
  struct Case {
    std::string name;
    std::function<Graph()> build;  ///< calls init_graph(g, seed, ...)
    std::uint64_t seed;
    InitDistribution dist;
  };
  const auto synthetic = [] {
    Graph g;
    g.add(std::make_unique<InputLayer>("input", std::vector<int>{0, 1}));
    for (int n : {0, 1, 65535, 65536, 65537, 131071}) {
      g.add(std::make_unique<Dense>("dense_" + std::to_string(n),
                                    n == 0 ? 0 : 1, n == 0 ? 5 : n),
            {0});
      if (n == 65536) g.add(std::make_unique<BatchNorm>("bn", 7), {0});
    }
    init_graph(g, 21);
    return g;
  };
  const std::vector<Case> cases = {
      {"synthetic", synthetic, 21, InitDistribution::Laplacian},
      {"LeNet-5", [] { return make_lenet5(1).graph; }, 1,
       InitDistribution::Gaussian},
      {"AlexNet", [] { return make_alexnet(1).graph; }, 1,
       InitDistribution::Laplacian},
      {"MobileNet", [] { return make_mobilenet(1009).graph; }, 1009,
       InitDistribution::Laplacian},
  };
  for (const Case& c : cases) {
    Graph ref = c.build();
    Xoshiro256pp ref_rng(c.seed);
    reference_init_graph(ref, ref_rng, InitScheme::GlorotNormal, c.dist);
    const std::vector<float> want = all_params(ref);
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      Graph g = c.build();
      ASSERT_TRUE(bitwise_equal(all_params(g), want))
          << c.name << " threads " << threads;
      const Xoshiro256pp left = init_layers(g, c.seed, c.dist);
      ASSERT_TRUE(same_generator(left, ref_rng))
          << c.name << " threads " << threads;
      ASSERT_TRUE(bitwise_equal(all_params(g), want))
          << c.name << " threads " << threads;
    }
  }
}

TEST_F(ParallelDeterminism, InitEveryWidthMatchesSerial) {
  // Every vector width the host runs fills a Laplacian kernel with the
  // serial loop's bits and leaves the generator where that loop leaves it,
  // at every thread count: 2^22 draws at three scales, and kernels of 0, 1,
  // 255, 257 and 2^16 +- 1 weights (short last blocks and chunks). On those
  // draws the rounding guard must have sent some blocks to the scalar path.
  std::string skipped;
  const auto kernels =
      runnable_kernels(detail::laplacian_kernels(), skipped);
  struct Case {
    std::size_t n;
    double b;
  };
  std::vector<Case> cases;
  for (const double b : {1e-5, 0.0023, 0.37}) cases.push_back({1U << 22, b});
  for (const std::size_t n : {0, 1, 255, 257, 65535, 65537}) {
    cases.push_back({n, 0.0023});
  }
  std::size_t fallbacks = 0;
  for (const Case& c : cases) {
    Xoshiro256pp ref_rng(31);
    std::vector<float> want(c.n);
    reference_fill_laplacian(want, c.b, ref_rng);
    for (const auto& kernel : kernels) {
      for (unsigned threads : {1U, 2U, 8U}) {
        set_global_threads(threads);
        Xoshiro256pp rng(31);
        std::vector<float> got(c.n, 1.0F);
        fallbacks += detail::fill_laplacian(got, c.b, rng, kernel);
        ASSERT_TRUE(bitwise_equal(got, want))
            << kernel.isa << "/" << kernel.vector_bytes << "B n " << c.n
            << " b " << c.b << " threads " << threads;
        ASSERT_TRUE(same_generator(rng, ref_rng))
            << kernel.isa << "/" << kernel.vector_bytes << "B n " << c.n
            << " threads " << threads;
      }
    }
  }
  EXPECT_GT(fallbacks, 0U) << "the rounding guard never fired";

  // The edge draws, straight through each transform, in a full block and
  // in a short one: u = 0 (weight -0) and |u| = 2^-53 (t = 1 - 2^-52, the
  // smallest nonzero log) stay on the vector path. Two draws send their
  // block to the scalar path: u = -0.5 (log 0, weight -inf), and a u whose
  // weight lies within 2^-40 of the midpoint of two floats, where a log a
  // few ulp off could round the other way.
  const double kInf = std::numeric_limits<double>::infinity();
  const double b = 0.37;
  const double midpoint = (static_cast<double>(0.3F) +
                           static_cast<double>(std::nextafter(0.3F, 1.0F))) /
                          2;
  enum class Extra { kNone, kLogZero, kMidpoint };
  for (const auto& kernel : kernels) {
    for (const std::size_t n : {256, 100}) {
      for (const Extra extra : {Extra::kNone, Extra::kLogZero,
                                Extra::kMidpoint}) {
        Xoshiro256pp rng(5);
        std::vector<double> u(n);
        for (auto& x : u) x = rng.uniform() - 0.5;
        u[3] = 0.0;
        u[50] = 0x1p-53;
        u[51] = -0x1p-53;
        if (extra == Extra::kLogZero) u[70] = -0.5;
        if (extra == Extra::kMidpoint) {
          u[70] = 0.5 * (1.0 - std::exp(-midpoint / b));
        }
        std::vector<float> want(n);
        for (std::size_t j = 0; j < n; ++j) {
          want[j] = reference_laplacian_weight(u[j], b);
        }
        std::vector<float> got(n, 1.0F);
        const std::size_t fell = kernel.run(u.data(), n, b, got.data());
        const std::string where =
            std::string(kernel.isa) + "/" +
            std::to_string(kernel.vector_bytes) + "B n " +
            std::to_string(n) + " extra draw " +
            std::to_string(static_cast<int>(extra));
        EXPECT_EQ(fell, extra == Extra::kNone ? 0U : 1U) << where;
        ASSERT_TRUE(bitwise_equal(got, want)) << where;
        EXPECT_TRUE(got[3] == 0.0F && std::signbit(got[3])) << where;
        EXPECT_GT(got[50], 0.0F) << where;
        if (extra == Extra::kLogZero) {
          EXPECT_EQ(got[70], -kInf) << where;
        }
      }
    }
  }
  if (!skipped.empty()) GTEST_SKIP() << "not run: " << skipped;
}

TEST_F(ParallelDeterminism, GraphForwardBitIdenticalAcrossThreadCounts) {
  // Batch >= 8 so the batched path splits across lanes at 8 threads; LeNet-5
  // covers conv (im2col), pooling, dense (gemm) and softmax layers.
  Model m = make_lenet5();
  Tensor input({8, m.input_size, m.input_size, m.input_channels});
  {
    Xoshiro256pp rng(10);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }

  set_global_threads(1);
  const Tensor ref = m.graph.forward(input);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    const Tensor out = m.graph.forward(input);
    ASSERT_EQ(out.shape(), ref.shape()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.data().size(); ++i) {
      ASSERT_EQ(out.data()[i], ref.data()[i])
          << "threads " << threads << " index " << i;
    }
  }
}

}  // namespace
}  // namespace nocw::nn
