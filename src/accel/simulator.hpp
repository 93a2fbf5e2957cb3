// NoC-based CNN accelerator simulator (paper Fig. 7 reference architecture).
//
// Execution model per traffic-bearing layer, following the paper's Fig. 1:
//   (1) the four corner memory interfaces fetch weights (possibly in the
//       compressed ⟨m,q,len⟩ format) and the input feature map from main
//       memory;
//   (2) the NoC scatters them to the 12 PEs (cycle-accurate wormhole
//       simulation — window-sampled for very large layers, then scaled,
//       since the traffic is steady-state streaming);
//   (3) the PEs compute (8 vector-MAC lanes x 8-way dot product = 64
//       MACs/cycle each), decompressing weights on the fly at one weight per
//       cycle per decompressor (Fig. 6), which never stalls the stream;
//   (4) the output feature map is gathered back and written to main memory.
// The reported layer latency is the stacked sum of the memory,
// communication and computation components — the same decomposition the
// paper's Fig. 2 / Fig. 10 breakdowns use.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/summary.hpp"
#include "noc/config.hpp"
#include "noc/stats.hpp"
#include "obs/observation.hpp"
#include "obs/timeseries.hpp"
#include "power/energy_model.hpp"
#include "util/units.hpp"

namespace nocw::accel {

struct AccelConfig {
  noc::NocConfig noc;
  int macs_per_pe_per_cycle = 64;     ///< 8 lanes x 8-way dot product
  int pe_local_memory_bytes = 8192;   ///< 8 KB per PE
  int dram_words_per_cycle_per_mi = 1;  ///< 64-bit words per cycle per MI
  double dram_efficiency = 0.7;       ///< sustained/peak bandwidth (row misses)
  int dram_latency_cycles = 100;      ///< first-access latency per layer
  std::uint32_t packet_flits = 32;    ///< wormhole packet size
  int bits_per_weight = 32;
  int bits_per_activation = 32;
  /// NoC sampling window: layers whose phase traffic exceeds this many flits
  /// are simulated for a window and scaled (streaming steady state).
  std::uint64_t noc_window_flits = 24000;
  std::uint64_t max_phase_cycles = 8000000;  ///< deadlock guard
  /// Phase timing model. The paper's stacked breakdowns correspond to the
  /// serialized model (layer latency = memory + NoC + compute). With
  /// double-buffered local memories the three phases stream concurrently
  /// and the layer is bound by its slowest phase; enable `overlap_phases`
  /// to model that (ablation_noc quantifies the difference).
  bool overlap_phases = false;
  /// Optional time-series sink (obs/timeseries). When non-null, the NoC
  /// cycle engine samples link/queue activity every `series_interval_cycles`
  /// simulated cycles, and the layer model synthesizes DRAM/MAC/decompress
  /// activity points over its analytic phase spans — all stamped on the
  /// inference-global timeline. Sampling reads committed state only, so
  /// simulation results are bit-identical with or without a sink. One sink
  /// belongs to one simulation run: concurrent sweep lanes must not share
  /// it (their timelines interleave and per-series cycles would go
  /// backwards).
  obs::TimeSeriesSet* series = nullptr;
  std::uint64_t series_interval_cycles = 256;
};

/// Per-layer override installed by the compression flow: the selected
/// layer's weight stream is replaced by its compressed size, and the PEs
/// charge one decompressor accumulate per reconstructed weight.
struct LayerCompression {
  std::uint64_t compressed_bits = 0;
  std::uint64_t weight_count = 0;  ///< decompress steps when reconstructing
};
using CompressionPlan = std::map<std::string, LayerCompression>;

/// Plan under which every weighted traffic-bearing layer streams *zero*
/// weight bits and performs zero decompress steps: the weights are already
/// resident in the PE local memories from a previous inference of the same
/// model. Feature-map traffic and MAC work are untouched. The serving
/// layer simulates each request class once with its real plan (cold cost)
/// and once with this plan (marginal batched cost); the gap is exactly the
/// weight traffic batching amortizes — the same traffic the paper's
/// compression attacks.
[[nodiscard]] CompressionPlan resident_weights_plan(
    const ModelSummary& summary);

/// Latency decomposition in cycles (the paper's three latency components).
/// Under the overlap model `overlap_cycles` holds the max-bound layer time;
/// total() still reports the stacked sum the paper's figures decompose.
/// FracCycles: the components are analytic (window-scaled) estimates, so
/// they are fractional — but they are still *cycles*, and the strong type
/// keeps them from ever being added to joules or seconds.
struct LatencyBreakdown {
  units::FracCycles memory_cycles;
  units::FracCycles comm_cycles;
  units::FracCycles compute_cycles;
  units::FracCycles overlap_cycles;
  [[nodiscard]] units::FracCycles total() const noexcept {
    return memory_cycles + comm_cycles + compute_cycles;
  }
  LatencyBreakdown& operator+=(const LatencyBreakdown& o) noexcept {
    memory_cycles += o.memory_cycles;
    comm_cycles += o.comm_cycles;
    compute_cycles += o.compute_cycles;
    overlap_cycles += o.overlap_cycles;
    return *this;
  }

  /// Invariant: every component is finite and non-negative.
  void check_invariants() const;
};

struct LayerResult {
  std::string name;
  nn::LayerType type = nn::LayerType::Input;
  units::Bits weight_stream_bits;  ///< after compression, if any
  units::Flits total_flits;
  LatencyBreakdown latency;
  power::EnergyBreakdown energy;
  /// NoC-phase link and ejection counts (empty unless the tracer's noc
  /// category was live; see Network::observing).
  obs::NocObservation noc_obs;
};

struct InferenceResult {
  std::string model_name;
  std::vector<LayerResult> layers;
  LatencyBreakdown latency;
  power::EnergyBreakdown energy;
  /// Merge of every traffic-bearing layer's NoC observation.
  obs::NocObservation noc_obs;
};

class AcceleratorSim {
 public:
  explicit AcceleratorSim(const AccelConfig& cfg = AccelConfig{},
                          const power::EnergyTable& table =
                              power::EnergyTable{});

  /// Simulate one inference of `summary`, optionally with a compression
  /// plan overriding selected layers' weight streams.
  [[nodiscard]] InferenceResult simulate(
      const ModelSummary& summary,
      const CompressionPlan* plan = nullptr) const;

  /// `tag` labels the layer's NoC packets for diagnostics (simulate() passes
  /// the layer ordinal); it never affects results.
  [[nodiscard]] LayerResult simulate_layer(
      const LayerSummary& layer,
      const LayerCompression* compression = nullptr,
      std::uint32_t tag = 0) const;

  [[nodiscard]] const AccelConfig& config() const noexcept { return cfg_; }

  /// Endpoints actually used for traffic and throughput. Equal to the mesh's
  /// full MI/PE sets unless fault-aware routing is on and permanent outages
  /// hit the mesh — then failover runs at construction: endpoints on dead
  /// routers are dropped, as are MIs/PEs the west-first turn model can no
  /// longer connect (a dead transit router disconnects some west-chains, and
  /// phase traffic must be lossless, never silently undeliverable). The
  /// survivors absorb the dropped endpoints' traffic shares and compute
  /// throughput (deterministically), so the inference completes degraded
  /// instead of deadlocking. Construction throws nocw::CheckError when no
  /// MI or no PE survives.
  [[nodiscard]] std::span<const int> live_memory_interfaces() const noexcept {
    return live_mis_;
  }
  [[nodiscard]] std::span<const int> live_processing_elements()
      const noexcept {
    return live_pes_;
  }

  /// NoC phase-cache counters, accumulated across every simulate() call on
  /// this instance. Phase runs are memoized by (scatter, gather) flit
  /// volume; a run with a time-series sink or live NoC tracing bypasses the
  /// cache.
  [[nodiscard]] std::uint64_t noc_phase_cache_hits() const;
  [[nodiscard]] std::uint64_t noc_phase_cache_misses() const;

  /// Validate the configuration: positive mesh extents, buffer depth,
  /// packet size, word widths, clock and cycle budgets; DRAM efficiency in
  /// (0, 1]. Throws nocw::CheckError on violation. Runs once at
  /// construction, so a simulator that exists is a simulator whose derived
  /// rates (flits/word, words/cycle, seconds/cycle) are all well-defined.
  void check_invariants() const;

 private:
  struct NocPhase {
    units::FracCycles cycles;
    power::EventCounts events;
    obs::NocObservation observation;
  };
  /// Cycle-accurate scatter+gather for the layer's flit volumes, window
  /// sampled when large; memoized by volume when cacheable.
  [[nodiscard]] NocPhase run_noc_phase(units::Flits scatter_flits,
                                       units::Flits gather_flits,
                                       std::uint32_t tag) const;

  AccelConfig cfg_;
  power::EnergyTable table_;
  /// Surviving MI/PE node ids (== the config's full sets without failover).
  std::vector<int> live_mis_;
  std::vector<int> live_pes_;
  /// Fingerprint of every fault/protection/resilience/routing knob that can
  /// change what a phase run produces. Folded into the phase-cache key so a
  /// cached result can never be replayed under a different fault scenario
  /// or routing mode (defense in depth: cfg_ is immutable per instance, but
  /// the cache key should say so rather than assume it).
  std::uint64_t env_sig_ = 0;
  /// Phase memo keyed by (scatter, gather) flit volumes plus the fault/
  /// routing environment signature. mutable + mutex: simulate() is
  /// logically const and sweep drivers share one simulator across lanes.
  mutable std::mutex cache_mu_;
  mutable std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
                   NocPhase>
      phase_cache_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
};

}  // namespace nocw::accel
