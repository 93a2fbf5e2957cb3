// Architectural parameters of the NoC (paper Sec. IV-A defaults).
#pragma once

#include <cstdint>
#include <vector>

#include "noc/fault.hpp"

namespace nocw::noc {

/// Dimension-order routing variants (both deadlock-free on meshes).
enum class Routing {
  XY,  ///< resolve X first, then Y (the paper's configuration)
  YX,  ///< resolve Y first, then X
};

/// Route computation mode (noc/routing.hpp). Dor keeps the per-hop
/// dimension-order formula; WestFirst installs a table-driven west-first
/// turn-model route that can be rebuilt around quarantined links/routers.
/// With zero faults the west-first table is identical to XY DOR entry for
/// entry, so adaptive runs are bit-identical to the DOR baseline.
enum class RouteMode {
  Dor,
  WestFirst,
};

/// Resilience knobs: fault-aware routing + online fault escalation
/// (DESIGN.md §13). All off by default — the engine then behaves
/// bit-identically to a build without the subsystem.
struct ResilienceConfig {
  /// Routing mode. WestFirst requires Routing::XY (the turn model's
  /// forbidden turns are defined relative to X-first paths).
  RouteMode route_mode = RouteMode::Dor;
  /// Pre-mark the FaultModel's permanent link/router outages as down at
  /// construction (routes avoid them from cycle 0). With this off the
  /// outages must be discovered online by the watchdogs below.
  bool assume_known_outages = true;
  /// Online escalation: stall watchdogs and CRC-exhaustion suspicion may
  /// quarantine links/routers mid-run (flush + route rebuild). Requires an
  /// adaptive route_mode — quarantine without rerouting cannot recover.
  bool escalate = false;
  /// Consecutive blocked cycles before a stall watchdog quarantines a link
  /// or router.
  std::uint64_t stall_threshold_cycles = 256;
  /// Retry-exhausted packets charge one strike to every link on their
  /// path; a link reaching this many strikes is quarantined.
  int retry_suspicion_threshold = 3;

  [[nodiscard]] bool adaptive() const noexcept {
    return route_mode != RouteMode::Dor;
  }
};

/// Most virtual channels per input port: a router's kNumPorts * VCs slots
/// must fit the 64-bit candidate masks of the switch allocator.
inline constexpr int kMaxVirtualChannels = 12;

struct NocConfig {
  int width = 4;             ///< mesh columns
  int height = 4;            ///< mesh rows
  int buffer_depth = 4;      ///< flits per input FIFO
  int link_width_bits = 64;  ///< flit width == link width
  double clock_ghz = 1.0;    ///< 1 GHz operating frequency
  Routing routing = Routing::XY;
  /// Virtual channels per physical input port. A packet is assigned one VC
  /// at injection and keeps it along its (deterministic) path; the wormhole
  /// lock is held per (output, VC), so a blocked packet no longer blocks
  /// packets travelling on other VCs of the same link. 1 = plain wormhole;
  /// at most kMaxVirtualChannels.
  int virtual_channels = 1;
  /// Seeded fault injection (bit flips, link faults, router stalls). The
  /// default (all rates zero) is completely inert: cycles, stats and energy
  /// are bit-identical to a fault-free build.
  FaultConfig fault;
  /// Per-packet CRC + MI→PE retransmission. Off by default (zero overhead).
  ProtectionConfig protection;
  /// Fault-aware routing + escalation. Off by default (zero overhead).
  ResilienceConfig resilience;

  [[nodiscard]] int node_count() const noexcept { return width * height; }
  [[nodiscard]] int node_x(int id) const noexcept { return id % width; }
  [[nodiscard]] int node_y(int id) const noexcept { return id / width; }
  [[nodiscard]] int node_id(int x, int y) const noexcept {
    return y * width + x;
  }

  /// Corner nodes host the memory interfaces; the rest are PEs.
  [[nodiscard]] bool is_memory_interface(int id) const noexcept {
    const int x = node_x(id);
    const int y = node_y(id);
    return (x == 0 || x == width - 1) && (y == 0 || y == height - 1);
  }

  [[nodiscard]] std::vector<int> memory_interface_nodes() const;
  [[nodiscard]] std::vector<int> pe_nodes() const;

  /// Manhattan hop distance between two nodes (XY routing path length).
  [[nodiscard]] int hops(int a, int b) const noexcept;
};

}  // namespace nocw::noc
