// Traffic pattern builders.
//
// The accelerator's layer phases reduce to three patterns: a stream between
// two fixed endpoints (chopped into maximum-size packets), a scatter from a
// memory interface to a set of PEs (weights/ifmap dispatch), and a gather
// from PEs back to a memory interface (ofmap writeback). Uniform random
// traffic is provided for NoC validation and micro-benchmarks.
//
// The order of a builder's output is not the order a source injects it: a
// network source pops equal-release packets in std::priority_queue heap
// order (24 round-robin packets over 12 PEs pop as PE 0 2 6 2 11 10 …),
// and every simulated result depends on that order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "util/units.hpp"

namespace nocw::noc {

/// Chop `total_flits` from src to dst into packets of at most
/// `flits_per_packet`, all eligible at `release_cycle`. `tag` is copied into
/// every descriptor (diagnostics label, e.g. the layer ordinal).
std::vector<PacketDescriptor> stream_flow(int src, int dst,
                                          std::uint64_t total_flits,
                                          std::uint32_t flits_per_packet,
                                          std::uint64_t release_cycle = 0,
                                          std::uint32_t tag = 0);

/// Distribute `total_flits` from `src` round-robin over `dsts` in packets of
/// `flits_per_packet` (the MI -> PEs dispatch pattern).
std::vector<PacketDescriptor> scatter_flow(int src, std::span<const int> dsts,
                                           std::uint64_t total_flits,
                                           std::uint32_t flits_per_packet,
                                           std::uint64_t release_cycle = 0,
                                           std::uint32_t tag = 0);

/// Gather `total_flits` from `srcs` (round-robin) into `dst` (the PEs -> MI
/// writeback pattern).
std::vector<PacketDescriptor> gather_flow(std::span<const int> srcs, int dst,
                                          std::uint64_t total_flits,
                                          std::uint32_t flits_per_packet,
                                          std::uint64_t release_cycle = 0,
                                          std::uint32_t tag = 0);

/// The accelerator's canonical layer phase: split `scatter_flits` into equal
/// per-MI shares scattered round-robin over the PEs, then `gather_flits`
/// likewise gathered from the PEs back per MI. One definition shared by the
/// layer simulator and the sweep drivers, and the unit the simulator's
/// phase-compilation cache memoizes on ((scatter, gather) volumes under a
/// fixed config always compile to this exact packet sequence).
std::vector<PacketDescriptor> phase_traffic(const NocConfig& cfg,
                                            units::Flits scatter_flits,
                                            units::Flits gather_flits,
                                            std::uint32_t flits_per_packet,
                                            std::uint32_t tag = 0);

/// phase_traffic over an explicit endpoint set: the accelerator's failover
/// path passes the *surviving* MIs and PEs (dead routers excluded), so a
/// degraded layer compiles to traffic that only touches live endpoints.
std::vector<PacketDescriptor> phase_traffic(const NocConfig& cfg,
                                            std::span<const int> mis,
                                            std::span<const int> pes,
                                            units::Flits scatter_flits,
                                            units::Flits gather_flits,
                                            std::uint32_t flits_per_packet,
                                            std::uint32_t tag = 0);

/// `packets` uniform-random source/destination pairs (src != dst).
std::vector<PacketDescriptor> uniform_random_traffic(
    const NocConfig& cfg, int packets, std::uint32_t flits_per_packet,
    std::uint64_t seed);

/// Total flits described by a set of packets.
units::Flits total_flits(std::span<const PacketDescriptor> ps);

}  // namespace nocw::noc
