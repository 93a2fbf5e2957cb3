// Accelerator-level contract checks: configuration validation, guarded
// event-count accumulation, and non-negative latency/energy results.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "accel/simulator.hpp"
#include "accel/summary.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace nocw::accel {
namespace {

TEST(AccelInvariants, DefaultConfigPassesChecks) {
  const AcceleratorSim sim;
  EXPECT_NO_THROW(sim.check_invariants());
}

TEST(AccelInvariants, ConstructorRejectsBadConfig) {
  AccelConfig zero_packet;
  zero_packet.packet_flits = 0;
  EXPECT_THROW(AcceleratorSim{zero_packet}, CheckError);

  AccelConfig bad_efficiency;
  bad_efficiency.dram_efficiency = 0.0;
  EXPECT_THROW(AcceleratorSim{bad_efficiency}, CheckError);

  AccelConfig bad_clock;
  bad_clock.noc.clock_ghz = -1.0;
  EXPECT_THROW(AcceleratorSim{bad_clock}, CheckError);

  AccelConfig no_window;
  no_window.noc_window_flits = 0;
  EXPECT_THROW(AcceleratorSim{no_window}, CheckError);
}

TEST(AccelInvariants, RejectsMoreVirtualChannelsThanTheSwitchHolds) {
  AccelConfig most;
  most.noc.virtual_channels = noc::kMaxVirtualChannels;
  EXPECT_NO_THROW(AcceleratorSim{most});
  AccelConfig too_many;
  too_many.noc.virtual_channels = noc::kMaxVirtualChannels + 1;
  EXPECT_THROW(AcceleratorSim{too_many}, CheckError);
}

TEST(AccelInvariants, EventCountsAccumulateWithoutWrap) {
  power::EventCounts a;
  a.macs = 10;
  power::EventCounts b;
  b.macs = 32;
  a += b;
  EXPECT_EQ(a.macs, 42u);
}

TEST(AccelInvariants, EventCountsAdditionNeverWraps) {
  // A uint64 wrap in the event counters would silently deflate the energy
  // annotation; the guarded += must throw instead.
  power::EventCounts a;
  a.dram_accesses = std::numeric_limits<std::uint64_t>::max() - 1;
  power::EventCounts b;
  b.dram_accesses = 2;
  EXPECT_THROW(a += b, CheckError);
  // The saturating field is untouched after the failed add.
  EXPECT_EQ(a.dram_accesses, std::numeric_limits<std::uint64_t>::max() - 1);

  // Exactly reaching the maximum is still a valid (non-wrapping) sum.
  power::EventCounts c;
  c.macs = std::numeric_limits<std::uint64_t>::max() - 5;
  power::EventCounts d;
  d.macs = 5;
  EXPECT_NO_THROW(c += d);
  EXPECT_EQ(c.macs, std::numeric_limits<std::uint64_t>::max());
}

TEST(AccelInvariants, SimulatedLayerResultsSatisfyContracts) {
  const AcceleratorSim sim;
  LayerSummary layer;
  layer.name = "conv1";
  layer.type = nn::LayerType::Conv2D;
  layer.traffic_bearing = true;
  layer.weight_count = 4000;
  layer.ifmap_elems = 1024;
  layer.ofmap_elems = 1024;
  layer.macs = 500000;
  const LayerResult r = sim.simulate_layer(layer);
  EXPECT_NO_THROW(r.latency.check_invariants());
  EXPECT_NO_THROW(r.energy.check_invariants());
  EXPECT_GT(r.latency.total().value(), 0.0);
  EXPECT_GT(r.energy.total().value(), 0.0);
}

TEST(AccelInvariants, LatencyBreakdownRejectsNegativeComponent) {
  LatencyBreakdown l;
  l.comm_cycles = units::FracCycles{-1.0};
  EXPECT_THROW(l.check_invariants(), CheckError);
}

}  // namespace
}  // namespace nocw::accel
