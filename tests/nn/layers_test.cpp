#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "gemm_reference.hpp"
#include "util/rng.hpp"

namespace nocw::nn {
namespace {

Tensor run1(const Layer& layer, const Tensor& in) {
  const Tensor* ins[1] = {&in};
  return layer.forward(std::span<const Tensor* const>(ins, 1));
}

// --- shape helpers ----------------------------------------------------------

TEST(ConvShape, ValidAndSameExtents) {
  EXPECT_EQ(conv_out_extent(32, 5, 1, Padding::Valid), 28);
  EXPECT_EQ(conv_out_extent(28, 2, 2, Padding::Valid), 14);
  EXPECT_EQ(conv_out_extent(224, 3, 1, Padding::Same), 224);
  EXPECT_EQ(conv_out_extent(224, 3, 2, Padding::Same), 112);
  EXPECT_EQ(conv_out_extent(227, 11, 4, Padding::Valid), 55);
}

TEST(ConvShape, SamePadTotals) {
  EXPECT_EQ(same_pad_total(224, 3, 1), 2);
  EXPECT_EQ(same_pad_total(224, 3, 2), 1);
  EXPECT_EQ(same_pad_total(5, 1, 1), 0);
}

// --- Conv2D -------------------------------------------------------------------

TEST(Conv2D, IdentityKernelPassesThrough) {
  Conv2D conv("c", 1, 1, 1, 1, 1, Padding::Valid);
  conv.kernel()[0] = 1.0F;
  Tensor in({1, 3, 3, 1});
  std::iota(in.data().begin(), in.data().end(), 0.0F);
  const Tensor out = run1(conv, in);
  EXPECT_EQ(out.shape(), in.shape());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(Conv2D, SumKernelComputesWindowSums) {
  Conv2D conv("c", 1, 1, 3, 3, 1, Padding::Valid);
  for (auto& w : conv.kernel()) w = 1.0F;
  Tensor in({1, 3, 3, 1});
  in.fill(1.0F);
  const Tensor out = run1(conv, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 9.0F);
}

TEST(Conv2D, BiasIsAdded) {
  Conv2D conv("c", 1, 2, 1, 1, 1, Padding::Valid);
  conv.kernel()[0] = 0.0F;
  conv.kernel()[1] = 0.0F;
  conv.bias()[0] = 1.5F;
  conv.bias()[1] = -2.0F;
  Tensor in({1, 2, 2, 1});
  const Tensor out = run1(conv, in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.5F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), -2.0F);
}

TEST(Conv2D, SamePaddingZerosOutside) {
  // 3x3 all-ones kernel over an all-ones 3x3 input with SAME padding:
  // corners see 4 valid pixels, edges 6, center 9.
  Conv2D conv("c", 1, 1, 3, 3, 1, Padding::Same);
  for (auto& w : conv.kernel()) w = 1.0F;
  Tensor in({1, 3, 3, 1});
  in.fill(1.0F);
  const Tensor out = run1(conv, in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 4.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 6.0F);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 0), 9.0F);
}

TEST(Conv2D, StrideSkipsPositions) {
  Conv2D conv("c", 1, 1, 1, 1, 2, Padding::Valid);
  conv.kernel()[0] = 1.0F;
  Tensor in({1, 4, 4, 1});
  std::iota(in.data().begin(), in.data().end(), 0.0F);
  const Tensor out = run1(conv, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 2.0F);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 8.0F);
}

TEST(Conv2D, MultiChannelAgreesWithNaive) {
  Xoshiro256pp rng(211);
  Conv2D conv("c", 3, 5, 3, 3, 1, Padding::Valid);
  for (auto& w : conv.kernel()) w = static_cast<float>(rng.normal());
  for (auto& b : conv.bias()) b = static_cast<float>(rng.normal());
  Tensor in({2, 6, 7, 3});
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());
  const Tensor out = run1(conv, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{2, 4, 5, 5}));
  // Naive direct convolution.
  auto kernel = conv.kernel();
  for (int n = 0; n < 2; ++n) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 5; ++x) {
        for (int co = 0; co < 5; ++co) {
          double acc = conv.bias()[co];
          for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
              for (int ci = 0; ci < 3; ++ci) {
                acc += static_cast<double>(in.at(n, y + ky, x + kx, ci)) *
                       kernel[((static_cast<std::size_t>(ky) * 3 + kx) * 3 +
                               ci) * 5 + co];
              }
            }
          }
          EXPECT_NEAR(out.at(n, y, x, co), acc, 1e-4);
        }
      }
    }
  }
}

TEST(Conv2D, PointwiseSkipsIm2colBitIdentically) {
  // A 1x1 stride-1 conv feeds its input to the GEMM as is; a 1x1 stride-2
  // conv goes through im2col. On the stride-2 subsample of the same input
  // the two must agree bit for bit.
  Xoshiro256pp rng(212);
  Conv2D fast("p", 5, 11, 1, 1, 1, Padding::Same);
  Conv2D strided("s", 5, 11, 1, 1, 2, Padding::Valid);
  for (std::size_t i = 0; i < fast.kernel().size(); ++i) {
    fast.kernel()[i] = strided.kernel()[i] = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < fast.bias().size(); ++i) {
    fast.bias()[i] = strided.bias()[i] = static_cast<float>(rng.normal());
  }
  Tensor in({2, 7, 9, 5});
  for (auto& v : in.data()) {
    v = rng.uniform() < 0.5 ? 0.0F : static_cast<float>(rng.normal());
  }
  Tensor sub({2, 4, 5, 5});
  for (int n = 0; n < 2; ++n) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 5; ++x) {
        for (int c = 0; c < 5; ++c) {
          sub.at(n, y, x, c) = in.at(n, 2 * y, 2 * x, c);
        }
      }
    }
  }
  const Tensor got = run1(fast, sub);
  const Tensor want = run1(strided, in);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(bitwise_equal(got.data(), want.data()));
}

TEST(Conv2D, ParamCountMatchesKeras) {
  Conv2D conv("c", 3, 96, 11, 11, 4, Padding::Valid);
  EXPECT_EQ(conv.param_count(), 11u * 11 * 3 * 96 + 96);
}

TEST(Conv2D, ChannelMismatchThrows) {
  Conv2D conv("c", 3, 4, 3, 3, 1, Padding::Valid);
  Tensor in({1, 5, 5, 2});
  EXPECT_THROW(run1(conv, in), std::invalid_argument);
}

// --- DepthwiseConv2D ----------------------------------------------------------

TEST(DepthwiseConv2D, PerChannelIndependent) {
  DepthwiseConv2D dw("dw", 2, 1, 1, 1, Padding::Valid);
  dw.kernel()[0] = 2.0F;  // channel 0 doubled
  dw.kernel()[1] = 3.0F;  // channel 1 tripled
  Tensor in({1, 2, 2, 2});
  in.fill(1.0F);
  const Tensor out = run1(dw, in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 2.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 3.0F);
}

TEST(DepthwiseConv2D, WindowSumsPerChannel) {
  DepthwiseConv2D dw("dw", 1, 3, 3, 1, Padding::Same);
  for (auto& w : dw.kernel()) w = 1.0F;
  Tensor in({1, 3, 3, 1});
  in.fill(1.0F);
  const Tensor out = run1(dw, in);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 0), 9.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 4.0F);
}

TEST(DepthwiseConv2D, ParamCount) {
  DepthwiseConv2D dw("dw", 32, 3, 3, 1, Padding::Same);
  EXPECT_EQ(dw.param_count(), 3u * 3 * 32 + 32);
}

// --- Dense ---------------------------------------------------------------------

TEST(Dense, LinearMap) {
  Dense d("d", 2, 2);
  // kernel layout [in][out]
  d.kernel()[0] = 1.0F;  // in0->out0
  d.kernel()[1] = 2.0F;  // in0->out1
  d.kernel()[2] = 3.0F;  // in1->out0
  d.kernel()[3] = 4.0F;  // in1->out1
  d.bias()[0] = 0.5F;
  Tensor in({1, 2});
  in[0] = 1.0F;
  in[1] = 1.0F;
  const Tensor out = run1(d, in);
  EXPECT_FLOAT_EQ(out[0], 4.5F);
  EXPECT_FLOAT_EQ(out[1], 6.0F);
}

TEST(Dense, BatchRowsIndependent) {
  Dense d("d", 1, 1);
  d.kernel()[0] = 2.0F;
  Tensor in({3, 1});
  in[0] = 1.0F;
  in[1] = 2.0F;
  in[2] = 3.0F;
  const Tensor out = run1(d, in);
  EXPECT_FLOAT_EQ(out[0], 2.0F);
  EXPECT_FLOAT_EQ(out[1], 4.0F);
  EXPECT_FLOAT_EQ(out[2], 6.0F);
}

TEST(Dense, ParamCount) {
  Dense d("d", 400, 120);
  EXPECT_EQ(d.param_count(), 400u * 120 + 120);
}

// --- Pooling ---------------------------------------------------------------------

TEST(MaxPool, PicksWindowMax) {
  MaxPool mp("p", 2, 2);
  Tensor in({1, 2, 2, 1});
  in.at(0, 0, 0, 0) = 1.0F;
  in.at(0, 0, 1, 0) = 5.0F;
  in.at(0, 1, 0, 0) = -2.0F;
  in.at(0, 1, 1, 0) = 3.0F;
  const Tensor out = run1(mp, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 5.0F);
}

TEST(MaxPool, SamePaddingIgnoresOutside) {
  MaxPool mp("p", 3, 2, Padding::Same);
  Tensor in({1, 4, 4, 1});
  in.fill(-1.0F);
  in.at(0, 3, 3, 0) = 9.0F;
  const Tensor out = run1(mp, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 0), 9.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), -1.0F);  // padding never wins
}

TEST(AvgPool, AveragesWindow) {
  AvgPool ap("p", 2, 2);
  Tensor in({1, 2, 2, 1});
  in.at(0, 0, 0, 0) = 1.0F;
  in.at(0, 0, 1, 0) = 2.0F;
  in.at(0, 1, 0, 0) = 3.0F;
  in.at(0, 1, 1, 0) = 4.0F;
  const Tensor out = run1(ap, in);
  EXPECT_FLOAT_EQ(out[0], 2.5F);
}

TEST(AvgPool, SamePaddingCountsOnlyValid) {
  // TF semantics: padded positions are excluded from the divisor.
  AvgPool ap("p", 3, 1, Padding::Same);
  Tensor in({1, 3, 3, 1});
  in.fill(1.0F);
  const Tensor out = run1(ap, in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.0F);  // 4 valid ones / 4
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 0), 1.0F);  // 9 / 9
}

TEST(GlobalAvgPool, ReducesSpatial) {
  GlobalAvgPool gap("gap");
  Tensor in({2, 2, 2, 3});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i % 3);  // each channel constant per position
  }
  const Tensor out = run1(gap, in);
  ASSERT_EQ(out.shape(), (std::vector<int>{2, 3}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(out.at(0, 1), 1.0F);
  EXPECT_FLOAT_EQ(out.at(0, 2), 2.0F);
}

// --- Activations -------------------------------------------------------------------

TEST(Activations, ReluClampsNegative) {
  ReLU r("r");
  Tensor in({1, 4});
  in[0] = -1.0F;
  in[1] = 0.0F;
  in[2] = 2.0F;
  in[3] = -0.5F;
  const Tensor out = run1(r, in);
  EXPECT_FLOAT_EQ(out[0], 0.0F);
  EXPECT_FLOAT_EQ(out[2], 2.0F);
}

TEST(Activations, Relu6ClampsBothEnds) {
  ReLU6 r("r6");
  Tensor in({1, 3});
  in[0] = -1.0F;
  in[1] = 3.0F;
  in[2] = 10.0F;
  const Tensor out = run1(r, in);
  EXPECT_FLOAT_EQ(out[0], 0.0F);
  EXPECT_FLOAT_EQ(out[1], 3.0F);
  EXPECT_FLOAT_EQ(out[2], 6.0F);
}

TEST(Activations, SoftmaxRowsSumToOne) {
  Softmax s("s");
  Tensor in({2, 5});
  Xoshiro256pp rng(212);
  for (auto& v : in.data()) v = static_cast<float>(rng.normal(0.0, 3.0));
  const Tensor out = run1(s, in);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < 5; ++c) sum += out.at(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
}

TEST(Activations, SoftmaxStableForLargeLogits) {
  Softmax s("s");
  Tensor in({1, 3});
  in[0] = 1000.0F;
  in[1] = 1001.0F;
  in[2] = 999.0F;
  const Tensor out = run1(s, in);
  EXPECT_FALSE(std::isnan(out[0]));
  EXPECT_GT(out[1], out[0]);
  EXPECT_GT(out[0], out[2]);
}

TEST(Activations, SoftmaxPreservesOrdering) {
  Softmax s("s");
  Tensor in({1, 4});
  in[0] = 0.1F;
  in[1] = 2.0F;
  in[2] = -1.0F;
  in[3] = 0.5F;
  const Tensor out = run1(s, in);
  EXPECT_GT(out[1], out[3]);
  EXPECT_GT(out[3], out[0]);
  EXPECT_GT(out[0], out[2]);
}

// --- Shape ops & norm -----------------------------------------------------------

TEST(Flatten, CollapsesToRank2) {
  Flatten f("f");
  Tensor in({2, 3, 4, 5});
  const Tensor out = run1(f, in);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 60}));
}

TEST(Reshape, ViewsAsGivenShape) {
  Reshape r("r", {1, 1, 6});
  Tensor in({2, 6});
  const Tensor out = run1(r, in);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 1, 1, 6}));
}

TEST(BatchNorm, IdentityWithDefaultStats) {
  // gamma=1, beta=0, mean=0, var=1 -> output ~= input (up to epsilon).
  BatchNorm bn("bn", 3, 1e-5F);
  Tensor in({1, 2, 2, 3});
  Xoshiro256pp rng(213);
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());
  const Tensor out = run1(bn, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-4F);
  }
}

TEST(BatchNorm, AppliesFoldedScaleShift) {
  BatchNorm bn("bn", 1, 0.0F);
  bn.kernel()[0] = 2.0F;       // gamma
  bn.bias()[0] = 1.0F;         // beta
  bn.moving_mean()[0] = 3.0F;
  bn.moving_var()[0] = 4.0F;   // sqrt = 2
  Tensor in({1, 1});
  in[0] = 5.0F;
  const Tensor out = run1(bn, in);
  // y = gamma*(x-mean)/sqrt(var) + beta = 2*(5-3)/2 + 1 = 3
  EXPECT_FLOAT_EQ(out[0], 3.0F);
}

TEST(BatchNorm, ChannelLoopMatchesPerElementFormula) {
  // The forward pass walks positions x channels; the per-element formula
  // it replaced indexed the channel as i % C. Same multiply-then-add, so
  // the same bits, here with a non-power-of-two channel count.
  const int c = 7;
  BatchNorm bn("bn", c, 1e-3F);
  Xoshiro256pp rng(214);
  for (auto& g : bn.kernel()) g = static_cast<float>(rng.normal(1.0, 0.1));
  for (auto& b : bn.bias()) b = static_cast<float>(rng.normal(0.0, 0.1));
  for (auto& m : bn.moving_mean()) m = static_cast<float>(rng.normal());
  for (auto& v : bn.moving_var()) v = static_cast<float>(rng.uniform(0.5, 2));
  Tensor in({2, 3, 5, c});
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());

  std::vector<float> want(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t ci = i % c;
    const float scale = bn.kernel()[ci] / std::sqrt(bn.moving_var()[ci] + 1e-3F);
    const float shift = bn.bias()[ci] - bn.moving_mean()[ci] * scale;
    want[i] = in[i] * scale + shift;
  }
  const Tensor out = run1(bn, in);
  EXPECT_TRUE(bitwise_equal(out.data(), want));
}

TEST(BatchNorm, ParamCountIsFourPerChannel) {
  BatchNorm bn("bn", 64);
  EXPECT_EQ(bn.param_count(), 256u);
}

// --- Merging ---------------------------------------------------------------------

TEST(Add, SumsInputs) {
  Add add("a");
  Tensor x({1, 3});
  Tensor y({1, 3});
  x[0] = 1.0F;
  y[0] = 2.0F;
  x[2] = -1.0F;
  y[2] = 1.0F;
  const Tensor* ins[2] = {&x, &y};
  const Tensor out = add.forward(std::span<const Tensor* const>(ins, 2));
  EXPECT_FLOAT_EQ(out[0], 3.0F);
  EXPECT_FLOAT_EQ(out[2], 0.0F);
}

TEST(Add, ShapeMismatchThrows) {
  Add add("a");
  Tensor x({1, 3});
  Tensor y({1, 4});
  const Tensor* ins[2] = {&x, &y};
  EXPECT_THROW(add.forward(std::span<const Tensor* const>(ins, 2)),
               std::invalid_argument);
}

TEST(Concat, JoinsChannels) {
  Concat cat("c");
  Tensor x({1, 1, 1, 2});
  Tensor y({1, 1, 1, 3});
  x[0] = 1.0F;
  x[1] = 2.0F;
  y[0] = 3.0F;
  y[1] = 4.0F;
  y[2] = 5.0F;
  const Tensor* ins[2] = {&x, &y};
  const Tensor out = cat.forward(std::span<const Tensor* const>(ins, 2));
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 1, 1, 5}));
  for (int c = 0; c < 5; ++c) {
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, c), static_cast<float>(c + 1));
  }
}

TEST(Concat, SpatialMismatchThrows) {
  Concat cat("c");
  Tensor x({1, 2, 2, 1});
  Tensor y({1, 3, 3, 1});
  const Tensor* ins[2] = {&x, &y};
  EXPECT_THROW(cat.forward(std::span<const Tensor* const>(ins, 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nocw::nn
