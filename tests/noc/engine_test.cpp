// Event engine vs dense reference.
//
// The event engine (O(1) drain tracking, empty-router skip, idle jumps) is
// a pure speed lever: every counter, latency moment, and time-series point
// must be bit-identical to the dense reference, with and without fault
// injection, and neither engine may depend on the global pool size
// (NOCW_THREADS). These tests are the gate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "noc/network.hpp"
#include "noc/stats.hpp"
#include "noc/traffic.hpp"
#include "obs/timeseries.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace nocw::noc {
namespace {

/// Sets (or, with nullptr, unsets) NOCW_NOC_ENGINE for one scope and puts
/// back whatever the process had, so a test that compares engines means the
/// engines it names even when the suite runs under the override.
class ScopedEngineEnv {
 public:
  explicit ScopedEngineEnv(const char* value) {
    if (const char* old = std::getenv(kName)) saved_ = old;
    set(value);
  }
  ~ScopedEngineEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEngineEnv(const ScopedEngineEnv&) = delete;
  ScopedEngineEnv& operator=(const ScopedEngineEnv&) = delete;

 private:
  static constexpr const char* kName = "NOCW_NOC_ENGINE";
  static void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(kName);
    } else {
      ::setenv(kName, value, 1);
    }
  }
  std::optional<std::string> saved_;
};

void expect_identical(const NocStats& a, const NocStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.router_traversals, b.router_traversals);
  EXPECT_EQ(a.link_traversals, b.link_traversals);
  EXPECT_EQ(a.buffer_writes, b.buffer_writes);
  EXPECT_EQ(a.buffer_reads, b.buffer_reads);
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  // Bit-identical, not approximately equal: the engines must visit packets
  // in the same order for the running moments to match exactly.
  EXPECT_EQ(a.packet_latency.sum(), b.packet_latency.sum());
  EXPECT_EQ(a.packet_latency.mean(), b.packet_latency.mean());
  EXPECT_EQ(a.packet_latency.min(), b.packet_latency.min());
  EXPECT_EQ(a.packet_latency.max(), b.packet_latency.max());
  EXPECT_EQ(a.payload_bit_flips, b.payload_bit_flips);
  EXPECT_EQ(a.link_fault_cycles, b.link_fault_cycles);
  EXPECT_EQ(a.router_stall_cycles, b.router_stall_cycles);
  EXPECT_EQ(a.crc_flits_injected, b.crc_flits_injected);
  EXPECT_EQ(a.crc_flit_events, b.crc_flit_events);
  EXPECT_EQ(a.crc_failures, b.crc_failures);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
}

NocStats run_config(NocConfig cfg, EngineMode engine, std::uint64_t seed,
                    int packets = 300, std::uint32_t flits = 6) {
  cfg.engine = engine;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, packets, flits, seed));
  net.run_until_drained(1000000);
  return net.stats();
}

TEST(NocEngine, EventMatchesDenseOnRandomTraffic) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    NocConfig cfg;
    cfg.virtual_channels = 2;
    const NocStats dense = run_config(cfg, EngineMode::Dense, seed);
    const NocStats event = run_config(cfg, EngineMode::Event, seed);
    expect_identical(dense, event);
  }
  // An 8x8 mesh at pool sizes 1 and 8, pinned to the cycle count and
  // latency sum the engine has always produced for this traffic.
  NocConfig cfg;
  cfg.width = cfg.height = 8;
  cfg.virtual_channels = 2;
  const unsigned before = global_thread_count();
  for (const unsigned threads : {1u, 8u}) {
    set_global_threads(threads);
    const NocStats dense = run_config(cfg, EngineMode::Dense, 7, 2560, 8);
    const NocStats event = run_config(cfg, EngineMode::Event, 7, 2560, 8);
    expect_identical(dense, event);
    EXPECT_EQ(event.cycles.value(), 1228u) << "threads=" << threads;
    EXPECT_EQ(event.packet_latency.sum(), 1302142.0) << "threads=" << threads;
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
  const NocStats dense = run_config(cfg, EngineMode::Dense, 5);
  const NocStats event = run_config(cfg, EngineMode::Event, 5);
  // The traffic must actually exercise the recovery machinery for this
  // comparison to mean anything.
  EXPECT_GT(dense.crc_failures, 0u);
  EXPECT_GT(dense.retransmissions, 0u);
  expect_identical(dense, event);
  // The same faults on an 8x8 mesh: identical at pool sizes 1 and 8.
  cfg.width = cfg.height = 8;
  const unsigned before = global_thread_count();
  set_global_threads(1);
  const NocStats ref = run_config(cfg, EngineMode::Dense, 13, 1200);
  EXPECT_GT(ref.crc_failures, 0u);
  for (const unsigned threads : {1u, 8u}) {
    set_global_threads(threads);
    expect_identical(ref, run_config(cfg, EngineMode::Dense, 13, 1200));
    expect_identical(ref, run_config(cfg, EngineMode::Event, 13, 1200));
  }
  set_global_threads(before);
}

TEST(NocEngine, TimeSeriesIdenticalAcrossEngines) {
  const auto run_series = [](EngineMode engine) {
    NocConfig cfg;
    cfg.engine = engine;
    Network net(cfg);
    obs::TimeSeriesSet series;
    net.set_series_sink(&series, 32);
    net.add_packets(uniform_random_traffic(cfg, 120, 6, /*seed=*/4));
    // A release gap forces the event engine through its idle-jump path
    // while the sink is attached: boundary samples must still fire.
    net.add_packets(stream_flow(0, 15, 60, 6, /*release_cycle=*/5000));
    net.run_until_drained(1000000);
    return series.to_json();
  };
  EXPECT_EQ(run_series(EngineMode::Dense), run_series(EngineMode::Event));
}

TEST(NocEngine, IdleJumpSkipsReleaseGapsWithIdenticalStats) {
  const ScopedEngineEnv unset(nullptr);
  const auto run_gap = [](EngineMode engine) {
    NocConfig cfg;
    cfg.engine = engine;
    Network net(cfg);
    // Three bursts separated by ~100k idle cycles each.
    net.add_packets(stream_flow(0, 15, 80, 8, /*release_cycle=*/0));
    net.add_packets(stream_flow(5, 10, 80, 8, /*release_cycle=*/100000));
    net.add_packets(stream_flow(12, 3, 80, 8, /*release_cycle=*/200000));
    net.run_until_drained(1000000);
    return net;
  };
  const Network dense = run_gap(EngineMode::Dense);
  const Network event = run_gap(EngineMode::Event);
  expect_identical(dense.stats(), event.stats());
  EXPECT_EQ(dense.idle_cycles_skipped(), 0u);
  // ~200k of the run is idle gap; nearly all of it must be jumped, not
  // stepped (the whole point of the event engine).
  EXPECT_GT(event.idle_cycles_skipped(), 190000u);
}

TEST(NocEngine, EnvOverrideSelectsEngine) {
  for (const EngineMode configured : {EngineMode::Dense, EngineMode::Event}) {
    {
      const ScopedEngineEnv unset(nullptr);
      EXPECT_EQ(engine_from_env(configured), configured);
    }
    {
      const ScopedEngineEnv dense("dense");
      EXPECT_EQ(engine_from_env(configured), EngineMode::Dense);
    }
    {
      const ScopedEngineEnv event("event");
      EXPECT_EQ(engine_from_env(configured), EngineMode::Event);
    }
    {
      // An unknown value keeps the configured engine.
      const ScopedEngineEnv unknown("sparse");
      EXPECT_EQ(engine_from_env(configured), configured);
    }
  }
}

TEST(NocEngine, DrainTimeoutNamesOffendingPacket) {
  for (const EngineMode engine : {EngineMode::Dense, EngineMode::Event}) {
    NocConfig cfg;
    cfg.engine = engine;
    Network net(cfg);
    net.add_packets(stream_flow(0, 15, 64, 8, /*release_cycle=*/0,
                                /*tag=*/42));
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
}

TEST(NocEngine, PhaseTrafficMatchesPerMiShareCompilation) {
  NocConfig cfg;
  const auto mis = cfg.memory_interface_nodes();
  const auto pes = cfg.pe_nodes();
  const std::uint64_t scatter = 1000;
  const std::uint64_t gather = 300;
  std::vector<PacketDescriptor> manual;
  const auto append = [&](std::vector<PacketDescriptor>&& ps) {
    manual.insert(manual.end(), ps.begin(), ps.end());
  };
  const std::uint64_t s_share = (scatter + mis.size() - 1) / mis.size();
  std::uint64_t left = scatter;
  for (std::size_t m = 0; m < mis.size() && left > 0; ++m) {
    const std::uint64_t vol = std::min(s_share, left);
    append(scatter_flow(mis[m], pes, vol, 32, 0, 7));
    left -= vol;
  }
  const std::uint64_t g_share = (gather + mis.size() - 1) / mis.size();
  left = gather;
  for (std::size_t m = 0; m < mis.size() && left > 0; ++m) {
    const std::uint64_t vol = std::min(g_share, left);
    append(gather_flow(pes, mis[m], vol, 32, 0, 7));
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
