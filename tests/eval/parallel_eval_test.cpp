// The δ-sweep harness promises thread-count-independent results: every
// sweep run at 2 or 8 threads must match the 1-thread run bit for bit
// (per-task RNG streams, kernel overrides on one shared model, ordered
// reductions).
#include <gtest/gtest.h>

#include <vector>

#include "eval/flow.hpp"
#include "eval/layer_selection.hpp"
#include "eval/multi_layer.hpp"
#include "eval/probes.hpp"
#include "eval/sensitivity.hpp"
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
  const std::vector<double> deltas{0.0, 5.0, 10.0, 20.0};

  set_global_threads(1);
  nn::Model m = nn::make_lenet5();
  EvalConfig cfg;
  cfg.probes = 4;
  cfg.topk = 3;
  DeltaEvaluator ev(m, cfg);
  std::vector<DeltaPoint> ref;
  for (double d : deltas) ref.push_back(ev.evaluate(d));

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    const std::vector<DeltaPoint> got = ev.evaluate_many(deltas);
    ASSERT_EQ(got.size(), ref.size()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].delta_percent, ref[i].delta_percent);
      EXPECT_EQ(got[i].accuracy, ref[i].accuracy)
          << "threads " << threads << " delta " << deltas[i];
      EXPECT_EQ(got[i].report.cr, ref[i].report.cr);
      EXPECT_EQ(got[i].report.mse, ref[i].report.mse);
      EXPECT_EQ(got[i].compression.compressed_bits,
                ref[i].compression.compressed_bits);
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
