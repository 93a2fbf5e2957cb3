// The parallel kernels promise bit-identical results for any thread count.
// These tests pin that contract: reference outputs computed at 1 thread must
// match exactly (EXPECT_EQ on floats, not EXPECT_NEAR) at 2 and 8 threads.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gemm_reference.hpp"
#include "nn/gemm.hpp"
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

TEST_F(ParallelDeterminism, CloneIsDeepAndForwardEquivalent) {
  Model m = make_lenet5();
  Graph copy = m.graph.clone();

  Tensor input({2, m.input_size, m.input_size, m.input_channels});
  {
    Xoshiro256pp rng(11);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }
  const Tensor a = m.graph.forward(input);
  const Tensor b = copy.forward(input);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "index " << i;
  }

  // Mutating the clone must not leak into the original (deep copy).
  const int idx = copy.find("dense_1");
  auto kernel = copy.layer(idx).kernel();
  const float before = m.graph.layer(idx).kernel()[0];
  kernel[0] += 1.0F;
  EXPECT_EQ(m.graph.layer(idx).kernel()[0], before);
}

}  // namespace
}  // namespace nocw::nn
