// Golden full-phase statistics and the bottleneck bound.
//
// These cases pin the exact results of three full default-4x4
// phase_traffic phases (32-flit packets), recorded before the lane store
// replaced the per-router FIFOs: cycles, the latency sum and variance, the
// event counters, and every per-link and per-node count. The run loop must
// reproduce them bit for bit.
//
// The bottleneck bound is an independent sanity check: a phase can
// never finish before its busiest injection port, ejection port or link has
// moved all of its flits at one flit per cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "util/units.hpp"

namespace nocw::noc {
namespace {

struct GoldenPhase {
  std::uint64_t scatter_flits;
  std::uint64_t gather_flits;
  std::uint64_t cycles;
  double latency_sum;
  double latency_variance;
  std::uint64_t router_traversals;
  std::uint64_t link_traversals;
  std::uint64_t buffer_writes;
  std::uint64_t buffer_reads;
  std::vector<std::uint64_t> link_flits;   ///< [node * kNumPorts + port]
  std::vector<std::uint64_t> node_ejects;  ///< per node
};

const std::vector<GoldenPhase>& golden_phases() {
  static const std::vector<GoldenPhase> kPhases = {
      {20000, 20000, 10464, 6616493, 7148640.6808530195, 160000, 120000,
       160000, 160000,
       {0,    0,    4168, 2504, 0,    0,    0,    3344, 2496, 2512,
        0,    0,    2512, 2496, 3336, 0,    0,    0,    2504, 4168,
        0,    4160, 832,  3336, 0,    0,    848,  1664, 1664, 2496,
        0,    832,  2496, 1664, 1664, 0,    4160, 0,    3336, 832,
        0,    3328, 832,  4168, 0,    0,    1680, 1664, 832,  2496,
        0,    1664, 2496, 832,  1664, 0,    3328, 0,    4168, 832,
        0,    2496, 4168, 0,    0,    0,    2512, 3328, 0,    2496,
        0,    2496, 2496, 0,    3336, 0,    2496, 0,    0,    4168},
       {5000, 1696, 1664, 5000, 1664, 1664, 1664, 1664, 1664, 1664, 1664,
        1664, 5000, 1664, 1664, 5000}},
      {5000, 40000, 19786, 12459729, 27576880.848948419, 180000, 135000,
       180000, 180000,
       {0,    0,    1026, 2128, 0,    0,    0,    2304, 580,  3584,
        0,    0,    3552, 576,  2306, 0,    0,    0,    2064, 1058,
        0,    8320, 1664, 5200, 0,    0,    256,  3328, 384,  4992,
        0,    256,  4992, 384,  3328, 0,    8320, 0,    5200, 1664,
        0,    5248, 1664, 8336, 0,    0,    452,  3328, 192,  4992,
        0,    448,  4992, 192,  3328, 0,    5184, 0,    8336, 1664,
        0,    2112, 1026, 0,    0,    0,    644,  2272, 0,    3552,
        0,    640,  3520, 0,    2306, 0,    2048, 0,    0,    1058},
       {10000, 512, 512, 10000, 512, 392, 384, 384, 384, 384, 384, 384,
        10000, 384, 384, 10000}},
      {100000, 30000, 33914, 64900356, 78749696.118158147, 520000, 390000,
       520000, 520000,
       {0,     0,     20840, 9600,  0,     0,     0,     13768, 12480, 6720,
        0,     0,     6720,  12480, 13792, 0,     0,     0,     9600,  20840,
        0,     6220,  1280,  8000,  0,     0,     4224,  2560,  8320,  3840,
        0,     4176,  3840,  8320,  2560,  0,     6220,  0,     8000,  1280,
        0,     7820,  1240,  6284,  0,     0,     8384,  2456,  4160,  3648,
        0,     8336,  3672,  4160,  2432,  0,     7820,  0,     6284,  1216,
        0,     9536,  20840, 0,     0,     0,     12544, 13704, 0,     6592,
        0,     12496, 6592,  0,     13728, 0,     9536,  0,     0,     20840},
       {7500, 8448, 8352, 7500, 8320, 8320, 8320, 8320, 8320, 8320, 8320,
        8320, 7500, 8320, 8320, 7500}},
  };
  return kPhases;
}

std::vector<PacketDescriptor> golden_traffic(const NocConfig& cfg,
                                             const GoldenPhase& g) {
  return phase_traffic(cfg, units::Flits{g.scatter_flits},
                       units::Flits{g.gather_flits}, 32);
}

TEST(NocGoldenPhase, FullPhasesReproduceRecordedStats) {
  for (const GoldenPhase& g : golden_phases()) {
    SCOPED_TRACE(testing::Message() << g.scatter_flits << "/"
                                    << g.gather_flits);
    NocConfig cfg;
    Network net(cfg);
    net.add_packets(golden_traffic(cfg, g));
    net.run_until_drained(10000000);
    const NocStats& s = net.stats();
    EXPECT_EQ(s.cycles.value(), g.cycles);
    EXPECT_EQ(s.flits_ejected.value(), g.scatter_flits + g.gather_flits);
    EXPECT_EQ(s.packet_latency.sum(), g.latency_sum);
    EXPECT_EQ(s.packet_latency.variance(), g.latency_variance);
    EXPECT_EQ(s.router_traversals, g.router_traversals);
    EXPECT_EQ(s.link_traversals, g.link_traversals);
    EXPECT_EQ(s.buffer_writes, g.buffer_writes);
    EXPECT_EQ(s.buffer_reads, g.buffer_reads);
    const auto links = net.link_flit_counts();
    const auto ejects = net.node_eject_counts();
    EXPECT_EQ(std::vector<std::uint64_t>(links.begin(), links.end()),
              g.link_flits);
    EXPECT_EQ(std::vector<std::uint64_t>(ejects.begin(), ejects.end()),
              g.node_ejects);
  }
}

/// Largest of the per-node injected flits, the per-node ejected flits and
/// any one link's flit count: the fewest cycles that could carry the phase.
std::uint64_t bottleneck_flits(std::span<const PacketDescriptor> ps,
                               std::span<const std::uint64_t> link_flits,
                               std::span<const std::uint64_t> node_ejects,
                               int nodes) {
  std::vector<std::uint64_t> injected(static_cast<std::size_t>(nodes), 0);
  for (const PacketDescriptor& p : ps) injected[p.src] += p.size_flits;
  std::uint64_t bound = 0;
  for (const std::uint64_t v : injected) bound = std::max(bound, v);
  for (const std::uint64_t v : node_ejects) bound = std::max(bound, v);
  for (const std::uint64_t v : link_flits) bound = std::max(bound, v);
  return bound;
}

TEST(NocGoldenPhase, CyclesNeverBeatTheBottleneckPort) {
  for (const GoldenPhase& g : golden_phases()) {
    SCOPED_TRACE(testing::Message() << g.scatter_flits << "/"
                                    << g.gather_flits);
    NocConfig cfg;
    Network net(cfg);
    const auto ps = golden_traffic(cfg, g);
    net.add_packets(ps);
    const std::uint64_t cycles = net.run_until_drained(10000000);
    const std::uint64_t bound =
        bottleneck_flits(ps, net.link_flit_counts(), net.node_eject_counts(),
                         cfg.node_count());
    EXPECT_GT(bound, 0u);
    EXPECT_GE(cycles, bound);
  }
}

}  // namespace
}  // namespace nocw::noc
