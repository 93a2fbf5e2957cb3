// Graceful-degradation evaluation: survival curves under permanent router
// faults with fault-aware routing and PE failover (DESIGN.md §13).
//
// The paper's accelerator concentrates an inference on a 4x4 mesh whose 16
// routers are all endpoints (4 corner memory interfaces, 12 PEs), so any
// permanent router outage removes compute or bandwidth as well as a routing
// waypoint. This sweep kills 0..k routers (seeded, deterministic placement),
// turns on west-first fault-aware routing with endpoint failover, and runs
// the full LeNet-5 inference at each compression tolerance δ — recording
// whether the run completes at all, and at what latency/energy/accuracy
// cost relative to the healthy mesh. Failover redistributes a dead
// endpoint's traffic share and compute throughput across the survivors, so
// accuracy survives intact whenever the run completes; the degradation
// shows up as the latency/energy ratios the curves record.
//
// Determinism: fault placement is a pure function of (fault_seed, count),
// the accelerator simulation is bit-identical for any NOCW_THREADS, and the
// δ evaluation uses the deterministic parallel evaluator — the whole sweep
// diffs clean across runs and thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "noc/config.hpp"
#include "util/units.hpp"

namespace nocw::eval {

struct DegradationConfig {
  /// Permanent router outages swept 0..max (inclusive). Placement is the
  /// FaultModel's seeded hash walk, so fault count f+1 is a superset-style
  /// re-walk, not "f plus one more".
  int max_router_faults = 3;
  /// Codec tolerance points (δ as % of the weight range, paper convention).
  std::vector<double> delta_percents{0.0, 8.0};
  /// Seed for the permanent fault placement.
  std::uint64_t fault_seed = 0xF417;
  /// Base NoC configuration. The sweep forces west-first fault-aware
  /// routing on every arm (the zero-fault arm is bit-identical to DOR by
  /// the turn-model construction, so the f=0 row doubles as the healthy
  /// baseline).
  noc::NocConfig noc;
  /// Accelerator knobs mirrored into every arm.
  std::uint64_t noc_window_flits = 24000;
  std::uint64_t max_phase_cycles = 8'000'000;
  /// Top-k for accuracy against the dataset labels (1 for LeNet-5).
  int topk = 1;
};

/// One (router faults, δ) operating point.
struct DegradationPoint {
  int router_faults = 0;
  double delta_percent = 0.0;
  /// Surviving endpoints after failover (16-node mesh: 4 MIs, 12 PEs).
  int live_mis = 0;
  int live_pes = 0;
  /// True when the inference drained without a deadlock/timeout. Points
  /// that could not complete (e.g. no surviving MI) report zero cost.
  bool completed = false;
  /// Top-k accuracy of the δ-compressed model. Failover preserves the
  /// computation, so when `completed` this equals the healthy-mesh value.
  double accuracy = 0.0;
  units::FracCycles latency_cycles;
  units::Joules energy_j;
  /// Cost relative to the zero-fault arm at the same δ (1.0 = no penalty;
  /// 0.0 when either point did not complete).
  double latency_vs_healthy = 0.0;
  double energy_vs_healthy = 0.0;
};

struct DegradationResult {
  std::string selected_layer;
  double baseline_accuracy = 0.0;  ///< uncompressed, healthy mesh
  std::vector<DegradationPoint> points;  ///< faults outer, δ inner
};

/// Run the sweep on `model` against `test`. The model is read, never left
/// mutated. Results are bit-identical across runs and thread counts.
DegradationResult run_degradation_sweep(nn::Model& model,
                                        const nn::Dataset& test,
                                        const DegradationConfig& cfg);

}  // namespace nocw::eval
