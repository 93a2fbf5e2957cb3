// Event counters collected by the cycle engine.
//
// The power model (src/power) turns these event counts into energy via
// back-annotated per-event tables, exactly the structure of the paper's
// flow (circuit-level figures annotated onto the cycle-accurate simulator).
#pragma once

#include <cstdint>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace nocw::noc {

struct NocStats {
  units::Cycles cycles;
  units::Flits flits_injected;
  units::Flits flits_ejected;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_ejected = 0;
  std::uint64_t router_traversals = 0;  ///< flit crossing a router crossbar
  std::uint64_t link_traversals = 0;    ///< flit crossing an inter-router link
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  RunningStats packet_latency;  ///< injection to tail ejection, cycles

  // --- fault injection (zero unless a FaultConfig is active) ---
  std::uint64_t payload_bit_flips = 0;    ///< bits corrupted on links
  units::Cycles link_fault_cycles;   ///< (link, cycle) transient outages
  units::Cycles router_stall_cycles; ///< (router, cycle) stalls taken

  // --- CRC protection + retransmission (zero unless protection.crc) ---
  units::Flits crc_flits_injected;   ///< extra CRC flits added to packets
  std::uint64_t crc_flit_events = 0;     ///< flits through CRC gen/check logic
  std::uint64_t crc_failures = 0;        ///< packets failing the eject check
  std::uint64_t packets_delivered = 0;   ///< packets ejected CRC-clean
  std::uint64_t retransmissions = 0;     ///< NACK-triggered re-injections
  std::uint64_t packets_dropped = 0;     ///< retry budget exhausted

  // --- resilience / fault-aware routing (zero unless resilience active) ---
  std::uint64_t route_rebuilds = 0;        ///< RouteTable recomputations
  std::uint64_t links_quarantined = 0;     ///< links marked permanently down
  std::uint64_t routers_quarantined = 0;   ///< routers marked permanently down
  units::Flits flits_flushed;              ///< flits dropped by quarantine flush
  std::uint64_t packets_rerouted = 0;      ///< in-flight packets restarted
  std::uint64_t packets_undeliverable = 0; ///< dropped: no live route to dst
  units::Cycles recovery_cycles;           ///< detection latency spent stalled

  /// Delivered throughput in flits per cycle (typed rate; cross-dimension
  /// division in units.hpp carries the dimensions for us).
  [[nodiscard]] units::FlitsPerCycle throughput() const noexcept {
    return cycles.value() != 0 ? flits_ejected / cycles
                               : units::FlitsPerCycle{};
  }
};

}  // namespace nocw::noc
