// The δ-sweep harness promises thread-count-independent results: every
// sweep run at 2 or 8 threads must match the 1-thread run bit for bit
// (per-task RNG streams, kernel overrides on one shared model, ordered
// reductions).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/flow.hpp"
#include "eval/layer_selection.hpp"
#include "eval/multi_layer.hpp"
#include "eval/probes.hpp"
#include "eval/sensitivity.hpp"
#include "nn/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {
namespace {

class ParallelEval : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }
};

TEST_F(ParallelEval, SensitivityIdenticalAcrossThreadCounts) {
  SensitivityConfig cfg;
  cfg.probes = 3;
  cfg.trials = 2;
  cfg.topk = 3;
  cfg.noise_fraction = 0.4;

  set_global_threads(1);
  nn::Model ref_model = nn::make_lenet5();
  const auto ref = sensitivity_analysis(ref_model, nullptr, cfg);
  ASSERT_EQ(ref.size(), 5u);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    nn::Model m = nn::make_lenet5();
    const auto got = sensitivity_analysis(m, nullptr, cfg);
    ASSERT_EQ(got.size(), ref.size()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].layer, ref[i].layer);
      EXPECT_EQ(got[i].accuracy_drop, ref[i].accuracy_drop)
          << "threads " << threads << " layer " << ref[i].layer;
      EXPECT_EQ(got[i].normalized, ref[i].normalized)
          << "threads " << threads << " layer " << ref[i].layer;
    }
  }
}

TEST_F(ParallelEval, SensitivityLeavesModelUntouchedWhenParallel) {
  set_global_threads(4);
  nn::Model m = nn::make_lenet5();
  const int idx = m.graph.find("conv_1");
  const std::vector<float> before(m.graph.layer(idx).kernel().begin(),
                                  m.graph.layer(idx).kernel().end());
  SensitivityConfig cfg;
  cfg.probes = 2;
  cfg.trials = 1;
  (void)sensitivity_analysis(m, nullptr, cfg);
  const auto kernel = m.graph.layer(idx).kernel();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(kernel[i], before[i]) << "index " << i;
  }
}

TEST_F(ParallelEval, EvaluateManyMatchesSerialEvaluate) {
  // Every DeltaPoint field must equal the serial evaluate() bit for bit at
  // any thread count. The codec fields must equal core::compress on the
  // selected kernel, and the accuracy a tail replay on
  // decompress(compress()): the evaluator's streaming pass is the Table II
  // codec. The second codec exercises the CRC-8 bits and bfloat16
  // coefficients.
  const std::vector<double> deltas{0.0, 5.0, 10.0, 20.0};
  core::CodecConfig crc16;
  crc16.segment_checksum = true;
  crc16.coef_bits = 16;

  for (const core::CodecConfig& codec : {core::CodecConfig{}, crc16}) {
    SCOPED_TRACE("coef_bits " + std::to_string(codec.coef_bits));
    set_global_threads(1);
    nn::Model m = nn::make_lenet5();
    EvalConfig cfg;
    cfg.probes = 4;
    cfg.topk = 3;
    cfg.codec = codec;
    DeltaEvaluator ev(m, cfg);
    std::vector<DeltaPoint> ref;
    for (double d : deltas) ref.push_back(ev.evaluate(d));

    const int node = m.graph.find(ev.selected_layer());
    const auto kernel = m.graph.layer(node).kernel();
    const nn::Tensor probes = make_probes(cfg.probes, m.input_size,
                                          m.input_channels, cfg.probe_seed);
    const auto [full, captured] = m.graph.forward_capturing(probes, node);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      core::CodecConfig at = codec;
      at.delta_percent = deltas[i];
      const core::CompressedLayer layer = core::compress(kernel, at);
      const std::vector<float> approx = core::decompress(layer);
      const nn::Tensor out =
          m.graph.forward_tail(captured, node, {node, approx});
      EXPECT_EQ(ref[i].accuracy, nn::mean_topk_agreement(full, out, cfg.topk))
          << "delta " << deltas[i];
      const double cr = layer.compression_ratio();
      const double f = ev.selected_fraction();
      const core::CompressionReport& r = ref[i].report;
      EXPECT_EQ(r.delta_percent, deltas[i]);
      EXPECT_EQ(r.cr, cr) << "delta " << deltas[i];
      EXPECT_EQ(r.weighted_cr, core::weighted_cr(cr, f));
      EXPECT_EQ(r.mem_fp_reduction, core::mem_footprint_reduction(cr, f));
      EXPECT_EQ(r.mse, layer.mse()) << "delta " << deltas[i];
      EXPECT_EQ(r.segment_count, layer.segments.size());
      EXPECT_EQ(r.mean_segment_length, layer.mean_segment_length());
      EXPECT_EQ(ref[i].compression.compressed_bits, layer.compressed_bits());
      EXPECT_EQ(ref[i].compression.weight_count, layer.original_count);
    }

    for (unsigned threads : {1U, 2U, 4U, 8U}) {
      set_global_threads(threads);
      const std::vector<DeltaPoint> got = ev.evaluate_many(deltas);
      ASSERT_EQ(got.size(), ref.size()) << "threads " << threads;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " delta " +
                     std::to_string(deltas[i]));
        const core::CompressionReport& g = got[i].report;
        const core::CompressionReport& r = ref[i].report;
        EXPECT_EQ(got[i].delta_percent, ref[i].delta_percent);
        EXPECT_EQ(got[i].accuracy, ref[i].accuracy);
        EXPECT_EQ(g.delta_percent, r.delta_percent);
        EXPECT_EQ(g.cr, r.cr);
        EXPECT_EQ(g.weighted_cr, r.weighted_cr);
        EXPECT_EQ(g.mem_fp_reduction, r.mem_fp_reduction);
        EXPECT_EQ(g.mse, r.mse);
        EXPECT_EQ(g.segment_count, r.segment_count);
        EXPECT_EQ(g.mean_segment_length, r.mean_segment_length);
        EXPECT_EQ(got[i].compression.compressed_bits,
                  ref[i].compression.compressed_bits);
        EXPECT_EQ(got[i].compression.weight_count,
                  ref[i].compression.weight_count);
      }
    }
  }
}

TEST_F(ParallelEval, EvaluateManyLeavesModelWeightsUntouched) {
  set_global_threads(4);
  nn::Model m = nn::make_lenet5();
  EvalConfig cfg;
  cfg.probes = 2;
  DeltaEvaluator ev(m, cfg);
  const int idx = m.graph.find(ev.selected_layer());
  const std::vector<float> before(m.graph.layer(idx).kernel().begin(),
                                  m.graph.layer(idx).kernel().end());
  (void)ev.evaluate_many({0.0, 10.0, 20.0});
  const auto kernel = m.graph.layer(idx).kernel();
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(kernel[i], before[i]) << "index " << i;
  }
}

TEST_F(ParallelEval, SharedGraphConcurrentOverridesMatchSerial) {
  // Eight lanes replay the tail of one const graph at once, each with its
  // own kernel override; each replay must equal the serial one bit for bit.
  constexpr std::size_t kLanes = 8;
  set_global_threads(1);
  const nn::Model m = nn::make_lenet5();
  const nn::Graph& g = m.graph;
  const int node = select_layer(m);
  const nn::Tensor probes =
      make_probes(4, m.input_size, m.input_channels, /*seed=*/99);
  const auto [full, captured] = g.forward_capturing(probes, node);
  const auto own = g.layer(node).kernel();
  const std::vector<float> before(own.begin(), own.end());
  std::vector<std::vector<float>> kernels(kLanes, before);
  for (std::size_t k = 0; k < kLanes; ++k) {
    Xoshiro256pp rng(task_seed(7, k));
    for (float& v : kernels[k]) v += static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  std::vector<nn::Tensor> ref(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) {
    ref[k] = g.forward_tail(captured, node, {node, kernels[k]});
  }

  set_global_threads(kLanes);
  std::vector<nn::Tensor> got(kLanes);
  global_pool().parallel_for(
      0, kLanes, /*grain=*/1,
      [&](std::size_t k0, std::size_t k1, unsigned /*lane*/) {
        for (std::size_t k = k0; k < k1; ++k) {
          got[k] = g.forward_tail(captured, node, {node, kernels[k]});
        }
      });
  for (std::size_t k = 0; k < kLanes; ++k) {
    ASSERT_EQ(got[k].shape(), ref[k].shape());
    for (std::size_t i = 0; i < ref[k].size(); ++i) {
      ASSERT_EQ(got[k][i], ref[k][i]) << "lane " << k << " index " << i;
    }
  }
  EXPECT_NE(ref[0].data()[0], ref[1].data()[0]);  // overrides took effect
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(own[i], before[i]) << "index " << i;
  }
}

TEST_F(ParallelEval, MultiLayerPlanIdenticalAcrossThreadCounts) {
  MultiLayerConfig cfg;
  cfg.probes = 3;
  cfg.topk = 3;
  cfg.min_accuracy = 0.5;
  cfg.max_rounds = 6;

  set_global_threads(1);
  nn::Model ref_model = nn::make_lenet5();
  const MultiLayerResult ref = optimize_multi_layer(ref_model, nullptr, cfg);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    nn::Model m = nn::make_lenet5();
    const MultiLayerResult got = optimize_multi_layer(m, nullptr, cfg);
    EXPECT_EQ(got.accuracy, ref.accuracy) << "threads " << threads;
    EXPECT_EQ(got.weighted_cr, ref.weighted_cr) << "threads " << threads;
    ASSERT_EQ(got.plan.size(), ref.plan.size()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.plan.size(); ++i) {
      EXPECT_EQ(got.plan[i].layer, ref.plan[i].layer);
      EXPECT_EQ(got.plan[i].delta_percent, ref.plan[i].delta_percent);
      EXPECT_EQ(got.plan[i].compressed_bits, ref.plan[i].compressed_bits);
    }
  }
}

}  // namespace
}  // namespace nocw::eval
