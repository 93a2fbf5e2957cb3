// SloMonitor promises: tumbling event-time windows aligned to
// slo_window_start, budget evaluation at close (p99 / p99.9 / goodput),
// multi-horizon burn rates, exemplar trace links, and the SloIngest
// protocol the trace sink keys its pinning off.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

namespace nocw::obs {
namespace {

TEST(SloWindowStartTest, AlignsToTumblingWindows) {
  EXPECT_EQ(slo_window_start(0, 1000), 0u);
  EXPECT_EQ(slo_window_start(999, 1000), 0u);
  EXPECT_EQ(slo_window_start(1000, 1000), 1000u);
  EXPECT_EQ(slo_window_start(2500, 1000), 2000u);
}

SloPolicy tight_policy() {
  SloPolicy p;
  p.window_cycles = 1000;
  p.p99_budget_cycles = 100.0;
  p.p999_budget_cycles = 150.0;
  p.min_goodput_fraction = 0.9;
  p.error_budget = 0.01;
  return p;
}

TEST(SloMonitorTest, ClosesWindowWhenEventLeavesIt) {
  SloMonitor m(1, tight_policy());
  EXPECT_FALSE(m.on_complete(0, 100, 50, 0xA1).closed_window);
  EXPECT_FALSE(m.on_complete(0, 900, 60, 0xA2).closed_window);
  // Crossing into [1000, 2000) closes [0, 1000).
  const SloIngest crossing = m.on_complete(0, 1100, 70, 0xA3);
  EXPECT_TRUE(crossing.closed_window);
  ASSERT_EQ(m.windows().size(), 1u);
  const SloWindow& w = m.windows()[0];
  EXPECT_EQ(w.window_start, 0u);
  EXPECT_EQ(w.completions, 2u);
  EXPECT_EQ(w.sheds, 0u);
  EXPECT_EQ(w.max_latency_cycles, 60u);
  EXPECT_EQ(w.breach_mask, 0u);
}

TEST(SloMonitorTest, FinishClosesOpenWindowsAndIsIdempotent) {
  SloMonitor m(2, tight_policy());
  (void)m.on_complete(0, 10, 5, 1);
  (void)m.on_complete(1, 20, 5, 2);
  m.finish();
  EXPECT_EQ(m.windows().size(), 2u);
  m.finish();
  EXPECT_EQ(m.windows().size(), 2u);
}

TEST(SloMonitorTest, LatencyBudgetsBreachAndCarryExemplar) {
  SloMonitor m(1, tight_policy());
  (void)m.on_complete(0, 10, 50, 0xB1);
  (void)m.on_complete(0, 20, 500, 0xB2);  // window max, over both budgets
  (void)m.on_complete(0, 30, 60, 0xB3);
  m.finish();
  ASSERT_EQ(m.windows().size(), 1u);
  const SloWindow& w = m.windows()[0];
  EXPECT_NE(w.breach_mask & kBreachP99, 0u);
  EXPECT_NE(w.breach_mask & kBreachP999, 0u);
  EXPECT_EQ(w.breach_mask & kBreachGoodput, 0u);
  EXPECT_EQ(w.max_latency_cycles, 500u);
  EXPECT_EQ(w.exemplar_trace_id, 0xB2u);
  EXPECT_EQ(m.windows_breached(), 1u);
}

TEST(SloMonitorTest, EmptyLatencyWindowNeverBreachesLatencyBudgets) {
  SloMonitor m(1, tight_policy());
  (void)m.on_shed(0, 10, 0xC1);
  (void)m.on_shed(0, 20, 0xC2);
  m.finish();
  ASSERT_EQ(m.windows().size(), 1u);
  const SloWindow& w = m.windows()[0];
  EXPECT_EQ(w.completions, 0u);
  EXPECT_EQ(w.sheds, 2u);
  EXPECT_EQ(w.breach_mask, kBreachGoodput);  // goodput 0 < 0.9
  EXPECT_EQ(w.p99_cycles, 0.0);
  // The first shed of the window is its shed exemplar.
  EXPECT_EQ(w.shed_exemplar_trace_id, 0xC1u);
}

TEST(SloMonitorTest, GoodputFractionCountsShedsAgainstOffered) {
  SloMonitor m(1, tight_policy());
  for (int i = 0; i < 8; ++i) {
    (void)m.on_complete(0, 10 + i, 10, 0xD0 + static_cast<std::uint64_t>(i));
  }
  (void)m.on_shed(0, 50, 0xDF);
  (void)m.on_shed(0, 60, 0xE0);
  m.finish();
  ASSERT_EQ(m.windows().size(), 1u);
  const SloWindow& w = m.windows()[0];
  EXPECT_DOUBLE_EQ(w.goodput_fraction, 0.8);
  EXPECT_NE(w.breach_mask & kBreachGoodput, 0u);
}

TEST(SloMonitorTest, BurnRateAveragesOverHorizons) {
  SloPolicy p = tight_policy();
  p.min_goodput_fraction = 0.0;
  SloMonitor m(1, p);
  // Window [0,1000): 1 completion + 1 shed -> shed fraction 0.5.
  (void)m.on_complete(0, 100, 10, 1);
  (void)m.on_shed(0, 200, 2);
  // Window [1000,2000): 2 completions -> shed fraction 0.
  (void)m.on_complete(0, 1100, 10, 3);
  (void)m.on_complete(0, 1200, 10, 4);
  m.finish();
  ASSERT_EQ(m.windows().size(), 2u);
  // First close: fraction 0.5 / budget 0.01 = 50 at every horizon.
  EXPECT_DOUBLE_EQ(m.windows()[0].burn[0], 50.0);
  EXPECT_DOUBLE_EQ(m.windows()[0].burn[2], 50.0);
  // Second close: 1-window horizon is clean, 4-window horizon still sees
  // the earlier shed (1 bad of 4 offered = 0.25 / 0.01 = 25).
  EXPECT_DOUBLE_EQ(m.windows()[1].burn[0], 0.0);
  EXPECT_DOUBLE_EQ(m.windows()[1].burn[1], 25.0);
  EXPECT_DOUBLE_EQ(m.max_burn(0), 50.0);
}

TEST(SloMonitorTest, IngestProtocolFlagsWindowMaxAndBreachedClose) {
  SloMonitor m(1, tight_policy());
  // First completion of a window is always its max so far.
  EXPECT_TRUE(m.on_complete(0, 10, 500, 0xF1).window_max);
  // A lower latency is not.
  EXPECT_FALSE(m.on_complete(0, 20, 50, 0xF2).window_max);
  // A higher one is.
  EXPECT_TRUE(m.on_complete(0, 30, 600, 0xF3).window_max);
  // The close carried into the next window reports the breach verdict.
  const SloIngest crossing = m.on_complete(0, 1500, 10, 0xF4);
  EXPECT_TRUE(crossing.closed_window);
  EXPECT_TRUE(crossing.closed_breached);
  EXPECT_TRUE(crossing.window_max);  // first completion of the new window
  ASSERT_EQ(m.windows().size(), 1u);
  EXPECT_EQ(m.windows()[0].exemplar_trace_id, 0xF3u);
}

TEST(SloMonitorTest, ClassesRollIndependently) {
  SloMonitor m(2, tight_policy());
  (void)m.on_complete(0, 100, 10, 1);
  // Class 1's event far in the future must not close class 0's window.
  (void)m.on_complete(1, 5000, 10, 2);
  EXPECT_TRUE(m.windows().empty());
  m.finish();
  EXPECT_EQ(m.windows().size(), 2u);
}

TEST(SloMonitorTest, JsonExportCarriesSchemaAndHexExemplars) {
  SloMonitor m(1, tight_policy());
  (void)m.on_complete(0, 10, 500, 0xABC);
  m.finish();
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"schema\":\"nocw.slo.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplar\":\"0000000000000abc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"burn_1w\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_16w\""), std::string::npos);
}

TEST(SloMonitorTest, DeterministicAcrossIdenticalStreams) {
  const auto feed = [](SloMonitor& m) {
    for (int i = 0; i < 200; ++i) {
      const auto cycle = static_cast<std::uint64_t>(37 * i);
      if (i % 7 == 0) {
        (void)m.on_shed(0, cycle, 1000 + static_cast<std::uint64_t>(i));
      } else {
        (void)m.on_complete(0, cycle, static_cast<std::uint64_t>(i % 90),
                            2000 + static_cast<std::uint64_t>(i));
      }
    }
    m.finish();
  };
  SloMonitor a(1, tight_policy());
  SloMonitor b(1, tight_policy());
  feed(a);
  feed(b);
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace nocw::obs
