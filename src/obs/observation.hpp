// Raw observation counts collected from one NoC phase / inference.
//
// The cycle engine exposes where flits actually went (per-link and per-node
// counts); this struct carries them from noc::Network through
// accel::AcceleratorSim to their readers (the trace-overhead bench's gate
// checks, the bottleneck-bound simulator test) without either side depending
// on the other's types. It is filled only when the tracer's noc category is
// live (Network::observing).
#pragma once

#include <cstdint>
#include <vector>

namespace nocw::obs {

struct NocObservation {
  /// Flits over each inter-router link, indexed [node * kNumPorts + port]
  /// by the *sending* router's output port.
  std::vector<std::uint64_t> link_flits;
  /// Flits ejected at each node's local port (PE/MI ingestion).
  std::vector<std::uint64_t> node_ejections;
  /// Cycles the observed window ran.
  std::uint64_t window_cycles = 0;
  /// True when any window contributed (readers skip empty observations).
  bool collected = false;

  /// Element-wise accumulate (layers of one inference share link/node
  /// indexing).
  void merge(const NocObservation& o);
};

}  // namespace nocw::obs
