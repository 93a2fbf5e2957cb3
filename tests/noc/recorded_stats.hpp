// NocStats flattened for comparison with recorded values.
//
// Every counter and every latency moment goes in, so a recorded run pins the
// whole NocStats bit for bit. The values in the tests were recorded from the
// per-cycle reference engine that the idle-jump run loop replaced, or from
// the per-slot reference switch loop that the bitmask allocator replaced;
// they are the oracle both are held to.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "noc/stats.hpp"

namespace nocw::noc {

struct RecordedStats {
  /// cycles, flits injected/ejected, packets injected/ejected, router/link
  /// traversals, buffer writes/reads, latency samples, bit flips, link-fault
  /// and stall cycles, CRC flits/events/failures, packets delivered,
  /// retransmissions, drops, route rebuilds, links/routers quarantined,
  /// flits flushed, packets rerouted/undeliverable, recovery cycles.
  std::vector<std::uint64_t> counters;
  /// Latency sum, mean, variance, min, max.
  std::vector<double> latency;
};

inline RecordedStats record(const NocStats& s) {
  return {{s.cycles.value(), s.flits_injected.value(),
           s.flits_ejected.value(), s.packets_injected, s.packets_ejected,
           s.router_traversals, s.link_traversals, s.buffer_writes,
           s.buffer_reads, s.packet_latency.count(), s.payload_bit_flips,
           s.link_fault_cycles.value(), s.router_stall_cycles.value(),
           s.crc_flits_injected.value(), s.crc_flit_events, s.crc_failures,
           s.packets_delivered, s.retransmissions, s.packets_dropped,
           s.route_rebuilds, s.links_quarantined, s.routers_quarantined,
           s.flits_flushed.value(), s.packets_rerouted,
           s.packets_undeliverable, s.recovery_cycles.value()},
          {s.packet_latency.sum(), s.packet_latency.mean(),
           s.packet_latency.variance(), s.packet_latency.min(),
           s.packet_latency.max()}};
}

/// Bit-identical, not approximately equal: the latency moments match only
/// if packets eject in the same order.
inline void expect_recorded(const NocStats& s, const RecordedStats& want) {
  const RecordedStats got = record(s);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.latency, want.latency);
}

}  // namespace nocw::noc
