// Accuracy-under-fault evaluation: what transmission errors do to the
// compressed weight stream, and what CRC + retransmission buys back.
//
// The paper's codec trades redundancy for bandwidth, which concentrates
// information: one flipped bit in a serialized ⟨m, q, len⟩ record corrupts an
// entire reconstructed sub-succession, while the same bit in an uncompressed
// float stream perturbs a single weight. This sweep quantifies that fragility
// (accuracy of compressed vs uncompressed streams across bit-error rate × δ)
// and prices the remedy: per-packet CRC-32 with MI→PE retransmission, whose
// latency/energy overhead is measured on the cycle-accurate NoC with the same
// fault seed.
//
// Determinism: every stochastic choice derives from
// task_seed(cfg.fault_seed, flat trial index) or from the NoC FaultModel's
// counter-based hashes, so results are bit-identical across runs and for any
// NOCW_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "noc/config.hpp"
#include "power/energy_model.hpp"
#include "util/units.hpp"

namespace nocw::eval {

struct FaultSweepConfig {
  /// Per-bit flip probabilities applied to the serialized weight stream and,
  /// on the NoC side, to link traversals.
  std::vector<double> bit_error_rates{1e-6, 1e-5, 1e-4};
  /// Codec tolerance points (δ as % of the weight range, paper convention).
  std::vector<double> delta_percents{0.0, 2.0};
  /// Independent corruption trials averaged per (BER, δ) point.
  int trials = 3;
  /// Root seed for every fault decision in the sweep.
  std::uint64_t fault_seed = 90210;
  /// Codec settings; segment_checksum is forced on so corrupted segments are
  /// detected (and zeroed) rather than silently decoded.
  core::CodecConfig codec;
  /// Top-k for accuracy against the dataset labels (1 for LeNet-5).
  int topk = 1;

  // --- NoC cost model for the CRC/retransmission overhead ---
  noc::NocConfig noc;
  /// Weight-stream volume simulated per NoC cost run (kept small; the cost
  /// is reported per run, the *relative* overhead is what matters).
  std::uint64_t noc_flits = 4000;
  std::uint32_t packet_flits = 8;
  std::uint64_t max_noc_cycles = 2'000'000;
  power::EnergyTable energy;
};

/// One (bit-error rate, δ) operating point, trial-averaged.
struct FaultPoint {
  double bit_error_rate = 0.0;
  double delta_percent = 0.0;

  // --- accuracy (top-k against the test labels) ---
  double accuracy_clean = 0.0;         ///< δ-compressed, fault-free
  double accuracy_uncompressed = 0.0;  ///< raw float stream corrupted at BER
  double accuracy_compressed = 0.0;    ///< compressed stream corrupted at BER
  double accuracy_protected = 0.0;     ///< with CRC + retransmission
  /// Mean fraction of segments the tolerant decoder had to zero.
  double corrupted_segment_fraction = 0.0;

  // --- NoC cost of the weight stream at this BER (per cfg.noc_flits) ---
  units::FracCycles unprotected_cycles;
  units::FracCycles protected_cycles;
  units::Joules unprotected_energy_j;
  units::Joules protected_energy_j;
  std::uint64_t crc_failures = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t packets_dropped = 0;
};

struct FaultSweepResult {
  std::string selected_layer;
  double baseline_accuracy = 0.0;  ///< uncompressed, fault-free
  std::vector<FaultPoint> points;  ///< row-major: BER outer, δ inner
};

/// Run the sweep on `model`'s selected layer against `test`. The model is
/// only read: every (BER, δ) point replays the tail with its corrupted
/// weights as a kernel override, and points run on every pool lane at once.
/// Results are bit-identical across runs and thread counts for a fixed cfg.
FaultSweepResult run_fault_sweep(const nn::Model& model,
                                 const nn::Dataset& test,
                                 const FaultSweepConfig& cfg);

}  // namespace nocw::eval
