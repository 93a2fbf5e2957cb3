// The serving sweep promises: a grid in load-outer/scheduler-inner order
// where every scheduler at one load replays the same arrival timeline, a
// capacity estimate that scales offered rates.
#include "eval/serving.hpp"

#include <gtest/gtest.h>

#include "accel/summary.hpp"
#include "nn/models.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {
namespace {

class ServingSweep : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }

  static std::vector<serve::RequestClass> small_classes() {
    nn::Model model = nn::make_lenet5();
    const accel::ModelSummary summary = accel::summarize(model);
    std::vector<serve::RequestClass> classes(2);
    classes[0].name = "cold";
    classes[0].mix_fraction = 0.6;
    classes[0].summary = summary;
    classes[1].name = "resident";
    classes[1].tenant = 1;
    classes[1].tenant_weight = 3.0;
    classes[1].mix_fraction = 0.4;
    classes[1].summary = summary;
    classes[1].plan = accel::resident_weights_plan(summary);
    return classes;
  }

  static ServingSweepConfig small_config() {
    ServingSweepConfig cfg;
    cfg.offered_loads = {0.5, 1.4};
    cfg.schedulers = {"fifo", "sjf"};
    cfg.requests_per_point = 60;
    cfg.serve.accel.noc_window_flits = 4000;
    cfg.serve.queue.capacity = 16;
    return cfg;
  }
};

TEST_F(ServingSweep, GridOrderAndSharedTimelines) {
  set_global_threads(1);
  const ServingSweepResult res =
      run_serving_sweep(small_classes(), small_config());
  ASSERT_EQ(res.points.size(), 4u);  // 2 loads x 2 schedulers
  EXPECT_GT(res.capacity_rps, 0.0);
  ASSERT_EQ(res.profiles.size(), 2u);
  ASSERT_EQ(res.class_names.size(), 2u);
  EXPECT_EQ(res.class_names[0], "cold");

  // Load-outer, scheduler-inner, offered_rps proportional to load.
  EXPECT_EQ(res.points[0].scheduler, "fifo");
  EXPECT_EQ(res.points[1].scheduler, "sjf");
  EXPECT_DOUBLE_EQ(res.points[0].offered_load, 0.5);
  EXPECT_DOUBLE_EQ(res.points[2].offered_load, 1.4);
  EXPECT_NEAR(res.points[0].offered_rps, 0.5 * res.capacity_rps,
              1e-6 * res.capacity_rps);

  // Same load => same arrival timeline => identical per-class offered
  // counts for every scheduler.
  for (std::size_t base : {0u, 2u}) {
    const serve::ServeResult& a = res.points[base].result;
    const serve::ServeResult& b = res.points[base + 1].result;
    EXPECT_EQ(a.aggregate.offered, b.aggregate.offered);
    for (std::size_t c = 0; c < a.per_class.size(); ++c) {
      EXPECT_EQ(a.per_class[c].offered, b.per_class[c].offered);
    }
  }
}

TEST_F(ServingSweep, CapacityHelperMatchesAmortizedMix) {
  set_global_threads(1);
  std::vector<serve::RequestClass> classes(1);
  classes[0].mix_fraction = 1.0;
  std::vector<serve::ServiceProfile> profiles(1);
  profiles[0].full_cycles = units::Cycles{1000};
  profiles[0].marginal_cycles = units::Cycles{200};
  // Batch of 4: (1000 + 3*200) / 4 = 400 cycles per request.
  EXPECT_DOUBLE_EQ(capacity_requests_per_cycle(classes, profiles, 4),
                   1.0 / 400.0);
  // Batch of 1: no amortization.
  EXPECT_DOUBLE_EQ(capacity_requests_per_cycle(classes, profiles, 1),
                   1.0 / 1000.0);
}

TEST_F(ServingSweep, DeterministicAcrossThreadCounts) {
  set_global_threads(1);
  const ServingSweepResult ref =
      run_serving_sweep(small_classes(), small_config());
  for (const unsigned threads : {2U, 8U}) {
    set_global_threads(threads);
    const ServingSweepResult got =
        run_serving_sweep(small_classes(), small_config());
    ASSERT_EQ(got.points.size(), ref.points.size());
    EXPECT_EQ(got.capacity_rps, ref.capacity_rps);
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
      const serve::ClassServeStats& a = ref.points[i].result.aggregate;
      const serve::ClassServeStats& b = got.points[i].result.aggregate;
      EXPECT_EQ(a.completed, b.completed) << "point " << i;
      EXPECT_EQ(a.shed, b.shed) << "point " << i;
      EXPECT_EQ(a.latency.p50, b.latency.p50) << "point " << i;
      EXPECT_EQ(a.latency.p99, b.latency.p99) << "point " << i;
      EXPECT_EQ(ref.points[i].result.goodput_rps,
                got.points[i].result.goodput_rps)
          << "point " << i;
    }
  }
}

TEST_F(ServingSweep, ObservedSweepIsPureAndResolvesExemplars) {
  set_global_threads(1);
  const ServingSweepResult plain =
      run_serving_sweep(small_classes(), small_config());

  ObservedSweepConfig ocfg;
  ocfg.base = small_config();
  ocfg.slo.window_cycles = 500'000;
  ocfg.slo.p99_budget_cycles = 1.0;  // everything breaches: exercises pins
  ocfg.traces.tail_keep = 8;
  const ObservedSweepResult obs_res =
      run_observed_serving_sweep(small_classes(), ocfg);

  // Hooks observe only: the sweep results are bit-identical to the plain
  // run, point by point.
  ASSERT_EQ(obs_res.sweep.points.size(), plain.points.size());
  ASSERT_EQ(obs_res.slo.size(), plain.points.size());
  ASSERT_EQ(obs_res.sinks.size(), plain.points.size());
  for (std::size_t i = 0; i < plain.points.size(); ++i) {
    const serve::ClassServeStats& a = plain.points[i].result.aggregate;
    const serve::ClassServeStats& b = obs_res.sweep.points[i].result.aggregate;
    EXPECT_EQ(a.completed, b.completed) << "point " << i;
    EXPECT_EQ(a.shed, b.shed) << "point " << i;
    EXPECT_EQ(a.latency.p99, b.latency.p99) << "point " << i;
  }

  // Every breached window's exemplar resolves to a sampled span tree whose
  // root latency is the window's recorded max.
  std::uint64_t breached = 0;
  for (std::size_t i = 0; i < obs_res.slo.size(); ++i) {
    for (const obs::SloWindow& w : obs_res.slo[i].windows()) {
      if (w.breach_mask == 0) continue;
      ++breached;
      if (w.completions > 0) {
        const serve::RequestTrace* ex =
            obs_res.sinks[i].exemplar(w.exemplar_trace_id);
        ASSERT_NE(ex, nullptr);
        EXPECT_FALSE(ex->shed);
        EXPECT_EQ(ex->latency_cycles, w.max_latency_cycles);
        ASSERT_FALSE(ex->spans.empty());
        EXPECT_EQ(ex->spans.front().dur_cycles, w.max_latency_cycles);
      } else {
        const serve::RequestTrace* ex =
            obs_res.sinks[i].exemplar(w.shed_exemplar_trace_id);
        ASSERT_NE(ex, nullptr);
        EXPECT_TRUE(ex->shed);
      }
    }
    EXPECT_EQ(obs_res.sinks[i].exemplar_drops(), 0u);
  }
  EXPECT_GT(breached, 0u);
}

}  // namespace
}  // namespace nocw::eval
