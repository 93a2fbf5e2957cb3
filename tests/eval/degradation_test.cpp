// The degradation sweep promises deterministic survival curves: fixed fault
// seed → bit-identical points across repeated runs and NOCW_THREADS, with
// accuracy preserved wherever the inference completes (failover preserves
// the computation; only latency/energy degrade).
#include "eval/degradation.hpp"

#include <gtest/gtest.h>

#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {
namespace {

class Degradation : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }

  static DegradationConfig small_config() {
    DegradationConfig cfg;
    cfg.max_router_faults = 2;
    cfg.delta_percents = {0.0, 10.0};
    cfg.fault_seed = 4242;
    cfg.noc_window_flits = 4000;  // keep unit tests quick
    return cfg;
  }
};

void expect_points_equal(const DegradationPoint& a, const DegradationPoint& b,
                         const char* context) {
  EXPECT_EQ(a.router_faults, b.router_faults) << context;
  EXPECT_EQ(a.delta_percent, b.delta_percent) << context;
  EXPECT_EQ(a.live_mis, b.live_mis) << context;
  EXPECT_EQ(a.live_pes, b.live_pes) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.accuracy, b.accuracy) << context;
  EXPECT_EQ(a.latency_cycles, b.latency_cycles) << context;
  EXPECT_EQ(a.energy_j, b.energy_j) << context;
  EXPECT_EQ(a.latency_vs_healthy, b.latency_vs_healthy) << context;
  EXPECT_EQ(a.energy_vs_healthy, b.energy_vs_healthy) << context;
}

TEST_F(Degradation, SurvivalCurveShapesAreSane) {
  set_global_threads(1);
  nn::Model m = nn::make_lenet5();
  const nn::Dataset test = nn::make_digits(16, 71);
  const DegradationConfig cfg = small_config();
  const DegradationResult res = run_degradation_sweep(m, test, cfg);
  ASSERT_EQ(res.points.size(), 6u);  // 3 fault counts x 2 deltas

  const std::size_t nd = cfg.delta_percents.size();
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    const DegradationPoint& p = res.points[i];
    ASSERT_TRUE(p.completed) << "point " << i;  // k=2 is survivable on 4x4
    EXPECT_GT(p.live_mis, 0) << "point " << i;
    EXPECT_GT(p.live_pes, 0) << "point " << i;
    // Dead endpoints drop out; the connectivity filter may cost a few more.
    EXPECT_LE(p.live_mis + p.live_pes, 16 - p.router_faults) << "point " << i;
    // Accuracy survives failover: every fault count reports the healthy
    // mesh's δ accuracy.
    EXPECT_EQ(p.accuracy, res.points[i % nd].accuracy) << "point " << i;
    if (p.router_faults == 0) {
      EXPECT_EQ(p.latency_vs_healthy, 1.0) << "point " << i;
      EXPECT_EQ(p.energy_vs_healthy, 1.0) << "point " << i;
    } else {
      // Degradation is graceful, not free: fewer endpoints cost cycles.
      EXPECT_GT(p.latency_vs_healthy, 1.0) << "point " << i;
      EXPECT_GE(p.energy_vs_healthy, 1.0) << "point " << i;
    }
  }
}

TEST_F(Degradation, IdenticalAcrossThreadCounts) {
  const nn::Dataset test = nn::make_digits(16, 71);
  const DegradationConfig cfg = small_config();

  set_global_threads(1);
  nn::Model ref_model = nn::make_lenet5();
  const DegradationResult ref = run_degradation_sweep(ref_model, test, cfg);

  for (unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    nn::Model m = nn::make_lenet5();
    const DegradationResult got = run_degradation_sweep(m, test, cfg);
    ASSERT_EQ(got.points.size(), ref.points.size()) << "threads " << threads;
    EXPECT_EQ(got.baseline_accuracy, ref.baseline_accuracy);
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
      expect_points_equal(got.points[i], ref.points[i],
                          threads == 2 ? "threads=2" : "threads=8");
    }
  }
}

}  // namespace
}  // namespace nocw::eval
