// The δ-sweep feeds the codec's reconstruction straight into the selected
// layer's GEMM, one K-row panel at a time (eval::CodecSource). That must be
// a pure memory change: every DeltaPoint field and every bit of the tail's
// output equal the materialized path (compress_into into a whole-kernel
// buffer, then a span override) at any thread count, and a sweep's peak RSS
// must not grow by a kernel-sized buffer per lane.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "eval/flow.hpp"
#include "eval/layer_selection.hpp"
#include "eval/probes.hpp"
#include "nn/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {
namespace {

class StreamedFlow : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }
};

/// Input [size, size, channels] → `layers`... → Softmax; every kernel and
/// bias seeded normal.
nn::Model chain_model(int size, int channels,
                      std::vector<nn::LayerPtr> layers) {
  nn::Model m;
  m.name = "streamed";
  m.input_size = size;
  m.input_channels = channels;
  nn::Graph& g = m.graph;
  g.add(std::make_unique<nn::InputLayer>(
      "input", std::vector<int>{0, size, size, channels}));
  for (nn::LayerPtr& layer : layers) g.add_sequential(std::move(layer));
  g.add_sequential(std::make_unique<nn::Softmax>("softmax"));
  Xoshiro256pp rng(77);
  for (int node : g.parameterized_nodes()) {
    for (float& w : g.layer(node).kernel()) {
      w = static_cast<float>(rng.normal(0.0, 0.05));
    }
    for (float& b : g.layer(node).bias()) {
      b = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  return m;
}

/// A Dense layer whose K (203) is not a multiple of the panel height and
/// whose N (37) is not a multiple of any vector width.
nn::Model odd_dense_model() {
  std::vector<nn::LayerPtr> layers;
  layers.push_back(std::make_unique<nn::Flatten>("flatten"));
  layers.push_back(std::make_unique<nn::Dense>("dense_sel", 203, 37));
  layers.push_back(std::make_unique<nn::ReLU>("relu"));
  layers.push_back(std::make_unique<nn::Dense>("head", 37, 10));
  return chain_model(1, 203, std::move(layers));
}

/// MobileNet's conv_preds: a 1x1 conv from 1024 to 1000 channels over a
/// 1x1 map.
nn::Model conv_preds_model() {
  std::vector<nn::LayerPtr> layers;
  layers.push_back(std::make_unique<nn::Conv2D>("conv_preds", 1024, 1000, 1,
                                                1, 1, nn::Padding::Valid));
  layers.push_back(std::make_unique<nn::Flatten>("flatten_preds"));
  return chain_model(1, 1024, std::move(layers));
}

/// A 3x3 conv, which gathers its panels into one kernel for im2col.
nn::Model im2col_conv_model() {
  std::vector<nn::LayerPtr> layers;
  layers.push_back(std::make_unique<nn::Conv2D>("conv_sel", 16, 32, 3, 3, 1,
                                                nn::Padding::Same));
  layers.push_back(std::make_unique<nn::GlobalAvgPool>("gap"));
  layers.push_back(std::make_unique<nn::Dense>("head", 32, 10));
  return chain_model(5, 16, std::move(layers));
}

::testing::AssertionResult same_bits(const nn::Tensor& got,
                                     const nn::Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << got.shape_string() << " vs " << want.shape_string();
  }
  if (std::memcmp(got.raw(), want.raw(), want.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tail outputs differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_point(const DeltaPoint& p, double delta, double accuracy,
                  const core::CompressionStats& st, double fraction) {
  const core::CompressionReport want = core::compression_report(st, fraction);
  EXPECT_EQ(p.delta_percent, delta);
  EXPECT_EQ(p.accuracy, accuracy);
  EXPECT_EQ(p.report.delta_percent, want.delta_percent);
  EXPECT_EQ(p.report.cr, want.cr);
  EXPECT_EQ(p.report.weighted_cr, want.weighted_cr);
  EXPECT_EQ(p.report.mem_fp_reduction, want.mem_fp_reduction);
  EXPECT_EQ(p.report.mse, want.mse);
  EXPECT_EQ(p.report.segment_count, want.segment_count);
  EXPECT_EQ(p.report.mean_segment_length, want.mean_segment_length);
  EXPECT_EQ(p.compression.compressed_bits, st.compressed_bits());
  EXPECT_EQ(p.compression.weight_count, st.original_count);
}

/// At 1, 2 and 8 threads: the streamed tail and statistics equal the
/// materialized ones bit for bit, and so do evaluate() and evaluate_many().
void expect_streamed_matches_materialized(const nn::Model& m,
                                          const core::CodecConfig& codec) {
  const std::vector<double> deltas{0.0, 5.0, 20.0};
  const int node = select_layer(m);
  const auto kernel = m.graph.layer(node).kernel();
  const double range = value_range(kernel);
  for (const unsigned threads : {1U, 2U, 8U}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    set_global_threads(threads);
    EvalConfig cfg;
    cfg.probes = 6;
    cfg.topk = 5;
    cfg.codec = codec;
    DeltaEvaluator ev(m, cfg);
    const std::vector<DeltaPoint> many = ev.evaluate_many(deltas);
    const nn::Tensor probes = make_probes(cfg.probes, m.input_size,
                                          m.input_channels, cfg.probe_seed);
    const auto [full, captured] = m.graph.forward_capturing(probes, node);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      SCOPED_TRACE("delta " + std::to_string(deltas[i]));
      core::CodecConfig at = codec;
      at.delta_percent = deltas[i];
      std::vector<float> approx(kernel.size());
      const core::CompressionStats st =
          core::compress_into(kernel, at, range, approx);
      const nn::Tensor want =
          m.graph.forward_tail(captured, node, {node, approx});

      CodecSource source(kernel, at, range);
      const nn::Tensor got =
          m.graph.forward_tail(captured, node, {node, {}, &source});
      EXPECT_TRUE(same_bits(got, want));
      EXPECT_EQ(source.stats().segment_count, st.segment_count);
      EXPECT_EQ(source.stats().original_count, st.original_count);
      EXPECT_EQ(std::memcmp(&source.stats().delta_abs, &st.delta_abs,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&source.stats().sse, &st.sse, sizeof(double)), 0);

      const double accuracy = nn::mean_topk_agreement(full, want, cfg.topk);
      expect_point(ev.evaluate(deltas[i]), deltas[i], accuracy, st,
                   ev.selected_fraction());
      expect_point(many[i], deltas[i], accuracy, st, ev.selected_fraction());
    }
  }
}

TEST_F(StreamedFlow, OddDenseMatchesMaterialized) {
  const nn::Model m = odd_dense_model();
  ASSERT_EQ(m.graph.layer(select_layer(m)).name(), "dense_sel");
  expect_streamed_matches_materialized(m, core::CodecConfig{});
}

// Constant weights make every segment 2^8 = 256 long, so segments straddle
// every 64 x 37-float panel boundary.
TEST_F(StreamedFlow, MaxLengthSegmentsStraddlePanels) {
  nn::Model m = odd_dense_model();
  for (float& w : m.graph.layer(m.graph.find("dense_sel")).kernel()) {
    w = 0.02F;
  }
  core::CodecConfig codec;
  codec.length_bits = 8;
  expect_streamed_matches_materialized(m, codec);
}

TEST_F(StreamedFlow, PointwiseConvMatchesMaterialized) {
  const nn::Model m = conv_preds_model();
  ASSERT_EQ(m.graph.layer(select_layer(m)).name(), "conv_preds");
  expect_streamed_matches_materialized(m, core::CodecConfig{});
}

TEST_F(StreamedFlow, Im2colConvGathersPanelsAndMatchesMaterialized) {
  const nn::Model m = im2col_conv_model();
  ASSERT_EQ(m.graph.layer(select_layer(m)).name(), "conv_sel");
  expect_streamed_matches_materialized(m, core::CodecConfig{});
}

// A source is read once, so a full forward pass with one does not split
// its batch across lanes, and still equals the span override.
TEST_F(StreamedFlow, FullForwardWithSourceMatchesSpan) {
  set_global_threads(4);
  const nn::Model m = odd_dense_model();
  const int node = m.graph.find("dense_sel");
  const auto kernel = m.graph.layer(node).kernel();
  core::CodecConfig codec;
  codec.delta_percent = 10.0;
  std::vector<float> approx(kernel.size());
  (void)core::compress_into(kernel, codec, value_range(kernel), approx);
  const nn::Tensor probes = make_probes(6, 1, 203, 9);
  CodecSource source(kernel, codec, value_range(kernel));
  EXPECT_TRUE(same_bits(m.graph.forward(probes, {node, {}, &source}),
                        m.graph.forward(probes, {node, approx})));
}

/// Peak resident set of this process so far, in bytes.
std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

// ctest runs each case in its own process, so the high-water mark before
// the sweep is this case's own. Four points on four lanes used to hold four
// kernel-sized reconstructions at once; now each lane holds one panel.
TEST(StreamedFlowMemory, SweepPeakGrowsLessThanOneKernel) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
#endif
  set_global_threads(4);
  std::vector<nn::LayerPtr> layers;
  layers.push_back(std::make_unique<nn::Flatten>("flatten"));
  layers.push_back(std::make_unique<nn::Dense>("dense_big", 4096, 4096));
  layers.push_back(std::make_unique<nn::Dense>("head", 4096, 10));
  const nn::Model m = chain_model(1, 4096, std::move(layers));
  const std::size_t kernel_bytes =
      m.graph.layer(m.graph.find("dense_big")).kernel().size() * sizeof(float);

  EvalConfig cfg;
  cfg.probes = 6;
  DeltaEvaluator ev(m, cfg);
  ASSERT_EQ(ev.selected_layer(), "dense_big");
  const std::size_t before = peak_rss_bytes();
  const std::vector<DeltaPoint> points =
      ev.evaluate_many({0.0, 5.0, 10.0, 20.0});
  const std::size_t after = peak_rss_bytes();
  set_global_threads(1);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_LT(after - before, kernel_bytes)
      << "peak grew " << (after - before) / 1024 << " KiB; one kernel is "
      << kernel_bytes / 1024 << " KiB";
}

}  // namespace
}  // namespace nocw::eval
