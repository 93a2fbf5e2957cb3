// The run loop against its oracles.
//
// run_until_drained tracks drain in O(1), skips empty routers and jumps over
// idle stretches. Each of these is a speed lever only, so every counter,
// latency moment and time-series point must equal
//   - NocStats recorded from the per-cycle reference engine that the loop
//     replaced (recorded_stats.hpp), with and without fault injection and
//     at any global pool size (NOCW_THREADS) — the 4-VC fault and traced
//     runs from the per-slot reference switch loop that the bitmask
//     allocator replaced — and
//   - run_cycles over the same span, which steps every cycle and never
//     jumps.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/stats.hpp"
#include "noc/traffic.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "recorded_stats.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace nocw::noc {
namespace {

NocStats run_config(const NocConfig& cfg, std::uint64_t seed,
                    int packets = 300, std::uint32_t flits = 6) {
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, packets, flits, seed));
  net.run_until_drained(1000000);
  return net.stats();
}

TEST(NocEngine, EventMatchesDenseOnRandomTraffic) {
  const struct {
    std::uint64_t seed;
    RecordedStats stats;
  } kRandom[] = {
      {11,
       {{227, 1800, 1800, 300, 300, 6486, 4686, 6486, 6486, 300, 0, 0, 0, 0,
         0, 0, 300, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {29514, 98.379999999999995, 3086.865150501671, 7, 226}}},
      {22,
       {{245, 1800, 1800, 300, 300, 6468, 4668, 6468, 6468, 300, 0, 0, 0, 0,
         0, 0, 300, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {32581, 108.60333333333335, 3955.2100222965441, 7, 244}}},
      {33,
       {{238, 1800, 1800, 300, 300, 6474, 4674, 6474, 6474, 300, 0, 0, 0, 0,
         0, 0, 300, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {30389, 101.29666666666665, 3436.3966443701229, 7, 237}}},
  };
  NocConfig cfg;
  cfg.virtual_channels = 2;
  for (const auto& [seed, stats] : kRandom) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_recorded(run_config(cfg, seed), stats);
  }
  // An 8x8 mesh at pool sizes 1 and 8 (1228 cycles, latency sum 1302142).
  const RecordedStats k8x8 = {
      {1228, 20480, 20480, 2560, 2560, 129896, 109416, 129896, 129896, 2560,
       0, 0, 0, 0, 0, 0, 2560, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {1302142, 508.6492187500005, 88950.658459725251, 9, 1227}};
  cfg.width = cfg.height = 8;
  const unsigned before = global_thread_count();
  for (const unsigned threads : {1u, 8u}) {
    set_global_threads(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_recorded(run_config(cfg, 7, 2560, 8), k8x8);
  }
  set_global_threads(before);
}

TEST(NocEngine, EventMatchesDenseUnderFaultsAndCrc) {
  NocConfig cfg;
  cfg.fault.bit_flip_probability = 2e-4;
  cfg.fault.link_fault_probability = 1e-4;
  cfg.fault.router_stall_probability = 1e-4;
  cfg.fault.seed = 99;
  cfg.protection.crc = true;
  const NocStats small = run_config(cfg, 5);
  // The traffic must actually exercise the recovery machinery for this
  // comparison to mean anything.
  EXPECT_GT(small.crc_failures, 0u);
  EXPECT_GT(small.retransmissions, 0u);
  expect_recorded(small,
                  {{582, 2688, 2688, 384, 384, 10710, 8022, 10710, 10710, 384,
                    106, 1, 1, 384, 5376, 85, 299, 84, 1, 0, 0, 0, 0, 0, 0, 0},
                   {57226, 149.02604166666671, 9618.6990589643174, 8, 372}});
  // The same faults on an 8x8 mesh, at pool sizes 1 and 8.
  const RecordedStats k8x8 = {
      {991, 13195, 13195, 1885, 1885, 91952, 78757, 91952, 91952, 1885, 985,
       19, 4, 1885, 26390, 702, 1183, 685, 17, 0, 0, 0, 0, 0, 0, 0},
      {437070, 231.86737400530492, 29928.999386147199, 8, 763}};
  cfg.width = cfg.height = 8;
  const unsigned before = global_thread_count();
  for (const unsigned threads : {1u, 8u}) {
    set_global_threads(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const NocStats s = run_config(cfg, 13, 1200);
    EXPECT_GT(s.crc_failures, 0u);
    expect_recorded(s, k8x8);
  }
  set_global_threads(before);
}

TEST(NocEngine, FourVcsUnderFaultsAndCrcMatchRecorded) {
  // Faults, CRC retransmission and a 20-slot router at once: the stall and
  // link-fault counters tick on empty routers, NACKed packets requeue from
  // the ejection path, and the round-robin scan wraps over four VCs.
  NocConfig cfg;
  cfg.virtual_channels = 4;
  cfg.fault.bit_flip_probability = 2e-4;
  cfg.fault.link_fault_probability = 1e-3;
  cfg.fault.router_stall_probability = 1e-3;
  cfg.fault.seed = 17;
  cfg.protection.crc = true;
  const NocStats s = run_config(cfg, 23, 400);
  EXPECT_GT(s.crc_failures, 0u);
  EXPECT_GT(s.link_fault_cycles.value(), 0u);
  EXPECT_GT(s.router_stall_cycles.value(), 0u);
  expect_recorded(s,
                  {{488, 3542, 3542, 506, 506, 13314, 9772, 13314, 13314, 506,
                    128, 21, 16, 506, 7084, 106, 400, 106, 0, 0, 0, 0, 0, 0, 0,
                    0},
                   {77872, 153.89723320158112, 9621.2092200524366, 8, 415}});
}

#if !defined(NOCW_TRACE_DISABLED)
/// Count and order-free sums of one instant name in a NoC trace: the
/// timestamps, router ids and argument values of every such event.
struct InstantSums {
  std::uint64_t count = 0;
  std::uint64_t ts = 0;
  std::uint64_t tid = 0;
  double arg = 0.0;
  bool operator==(const InstantSums&) const = default;
};

InstantSums sum_instants(const std::vector<obs::TraceEvent>& events,
                         const std::string& name) {
  InstantSums s;
  for (const auto& e : events) {
    if (e.name != name) continue;
    ++s.count;
    s.ts += e.ts;
    s.tid += e.tid;
    s.arg += e.arg;
  }
  return s;
}

TEST(NocEngine, TracedRunMatchesRecorded) {
  // Live NoC tracing must not move a counter: the traced run reproduces the
  // untraced seed-11 stats of EventMatchesDenseOnRandomTraffic. The set of
  // inject/hop/eject instants is pinned by count and by order-free sums, so
  // a change that only reorders one router's same-cycle instants passes.
  const RecordedStats seed11 = {
      {227, 1800, 1800, 300, 300, 6486, 4686, 6486, 6486, 300, 0, 0, 0, 0, 0,
       0, 300, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {29514, 98.379999999999995, 3086.865150501671, 7, 226}};
  const struct {
    std::uint32_t sample;
    InstantSums inject, hop, eject;
  } kTraced[] = {
      {1,
       {300, 22759, 2270, 2163},
       {4686, 412426, 35286, 33852},
       {300, 29514, 2163, 29514}},
      {7,
       {300, 22759, 2270, 2163},
       {670, 58948, 5067, 4664},
       {300, 29514, 2163, 29514}},
  };
  NocConfig cfg;
  cfg.virtual_channels = 2;
  for (const auto& want : kTraced) {
    SCOPED_TRACE(testing::Message() << "sample " << want.sample);
    obs::Tracer::set_enabled(true);
    obs::Tracer::set_categories(obs::kCatNoc);
    obs::Tracer::set_sample_every(want.sample);
    obs::Tracer::global().clear();
    const NocStats s = run_config(cfg, 11);
    const auto events = obs::Tracer::global().collect();
    EXPECT_EQ(obs::Tracer::global().dropped(), 0u);
    obs::Tracer::global().clear();
    obs::Tracer::set_categories(obs::kCatAll);
    obs::Tracer::set_sample_every(1);
    obs::Tracer::set_enabled(false);
    expect_recorded(s, seed11);
    const InstantSums inject = sum_instants(events, "inject");
    const InstantSums hop = sum_instants(events, "hop");
    const InstantSums eject = sum_instants(events, "eject");
    EXPECT_EQ(inject, want.inject);
    EXPECT_EQ(hop, want.hop);
    EXPECT_EQ(eject, want.eject);
  }
}
#endif

/// Runs `traffic` through run_until_drained, then a second network through
/// run_cycles over the same span, and expects identical stats (and series,
/// if `sinks` are given). Returns the first network.
Network expect_stepped_run_matches(
    const std::vector<PacketDescriptor>& traffic,
    obs::TimeSeriesSet* sinks = nullptr) {
  const NocConfig cfg;
  Network jumped(cfg);
  Network stepped(cfg);
  if (sinks != nullptr) {
    jumped.set_series_sink(&sinks[0], 32);
    stepped.set_series_sink(&sinks[1], 32);
  }
  jumped.add_packets(traffic);
  stepped.add_packets(traffic);
  stepped.run_cycles(jumped.run_until_drained(1000000));
  EXPECT_TRUE(stepped.drained());
  EXPECT_EQ(stepped.idle_cycles_skipped(), 0u);
  expect_recorded(stepped.stats(), record(jumped.stats()));
  if (sinks != nullptr) {
    EXPECT_EQ(sinks[0].to_json(), sinks[1].to_json());
  }
  return jumped;
}

void append(std::vector<PacketDescriptor>& to,
            const std::vector<PacketDescriptor>& ps) {
  to.insert(to.end(), ps.begin(), ps.end());
}

TEST(NocEngine, TimeSeriesIdenticalToSteppedRun) {
  auto traffic = uniform_random_traffic(NocConfig{}, 120, 6, /*seed=*/4);
  // A release gap forces the run through its idle-jump path while the sink
  // is attached: boundary samples must still fire.
  append(traffic, stream_flow(0, 15, 60, 6, /*release_cycle=*/5000));
  obs::TimeSeriesSet sinks[2];
  const Network net = expect_stepped_run_matches(traffic, sinks);
  EXPECT_EQ(net.cycle(), 5067u);
  EXPECT_GT(net.idle_cycles_skipped(), 0u);
  EXPECT_FALSE(sinks[0].to_json().empty());
}

TEST(NocEngine, IdleJumpSkipsReleaseGapsWithIdenticalStats) {
  // Three bursts separated by ~100k idle cycles each.
  auto traffic = stream_flow(0, 15, 80, 8, /*release_cycle=*/0);
  append(traffic, stream_flow(5, 10, 80, 8, /*release_cycle=*/100000));
  append(traffic, stream_flow(12, 3, 80, 8, /*release_cycle=*/200000));
  const Network net = expect_stepped_run_matches(traffic);
  EXPECT_EQ(net.cycle(), 200087u);
  // ~200k of the run is idle gap; nearly all of it must be jumped, not
  // stepped (the point of the idle jump).
  EXPECT_GT(net.idle_cycles_skipped(), 190000u);
}

TEST(NocEngine, DrainTimeoutNamesOffendingPacket) {
  NocConfig cfg;
  Network net(cfg);
  net.add_packets(stream_flow(0, 15, 64, 8, /*release_cycle=*/0, /*tag=*/42));
  try {
    net.run_until_drained(3);
    FAIL() << "expected drain-timeout throw";
  } catch (const DrainTimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(e.max_cycles(), 3u);
    EXPECT_EQ(e.tag(), 42u);
    EXPECT_NE(msg.find("cycle budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("src 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dst 15"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 42"), std::string::npos) << msg;
  }
}

TEST(NocEngine, PhaseTrafficMatchesPerMiShareCompilation) {
  NocConfig cfg;
  const auto mis = cfg.memory_interface_nodes();
  const auto pes = cfg.pe_nodes();
  const std::uint64_t scatter = 1000;
  const std::uint64_t gather = 300;
  std::vector<PacketDescriptor> manual;
  const std::uint64_t s_share = (scatter + mis.size() - 1) / mis.size();
  std::uint64_t left = scatter;
  for (std::size_t m = 0; m < mis.size() && left > 0; ++m) {
    const std::uint64_t vol = std::min(s_share, left);
    append(manual, scatter_flow(mis[m], pes, vol, 32, 0, 7));
    left -= vol;
  }
  const std::uint64_t g_share = (gather + mis.size() - 1) / mis.size();
  left = gather;
  for (std::size_t m = 0; m < mis.size() && left > 0; ++m) {
    const std::uint64_t vol = std::min(g_share, left);
    append(manual, gather_flow(pes, mis[m], vol, 32, 0, 7));
    left -= vol;
  }
  const auto phase = phase_traffic(cfg, units::Flits{scatter},
                                  units::Flits{gather}, 32, /*tag=*/7);
  ASSERT_EQ(phase.size(), manual.size());
  EXPECT_EQ(total_flits(phase).value(), scatter + gather);
  for (std::size_t i = 0; i < phase.size(); ++i) {
    EXPECT_EQ(phase[i].src, manual[i].src);
    EXPECT_EQ(phase[i].dst, manual[i].dst);
    EXPECT_EQ(phase[i].size_flits, manual[i].size_flits);
    EXPECT_EQ(phase[i].release_cycle, manual[i].release_cycle);
    EXPECT_EQ(phase[i].tag, manual[i].tag);
  }
}

}  // namespace
}  // namespace nocw::noc
