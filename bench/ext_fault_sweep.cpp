// Extension: accuracy under transmission faults, and what CRC-protected
// flits + MI→PE retransmission cost to win it back. Not a paper figure — the
// paper transmits the compressed stream over an ideal NoC; this bench
// quantifies the fragility that compression adds (one flipped bit corrupts a
// whole ⟨m, q, len⟩ segment) and prices the recovery hardware on the
// cycle-accurate simulator. Deterministic for a fixed seed: the table, CSV
// and summary metrics are bit-identical across runs and NOCW_THREADS.
#include "bench_util.hpp"

#include "eval/fault_sweep.hpp"
#include "obs/log.hpp"

int main(int, char** argv) {
  using namespace nocw;
  const std::string dir = bench::output_dir(argv[0]);

  bench::TrainedLenet lenet = bench::trained_lenet(dir);

  eval::FaultSweepConfig cfg;
  cfg.bit_error_rates = {1e-6, 1e-5, 1e-4, 1e-3};
  cfg.delta_percents = {0.0, 10.0};
  cfg.trials = static_cast<int>(env_int("REPRO_FAULT_TRIALS", 3, 1));
  cfg.fault_seed =
      static_cast<std::uint64_t>(env_int("REPRO_FAULT_SEED", 90210, 0));
  cfg.topk = 1;
  cfg.noc_flits = bench::noc_window() / 6;  // weight stream only
  cfg.noc.fault.router_stall_probability = 1e-4;  // background control noise

  const eval::FaultSweepResult sweep =
      eval::run_fault_sweep(lenet.model, lenet.test, cfg);

  Table t({"BER", "delta", "acc clean", "acc uncompressed", "acc compressed",
           "acc protected", "seg corrupted", "cycles +CRC", "energy +CRC",
           "retx", "drops"});
  for (const auto& p : sweep.points) {
    const double cyc_over = p.unprotected_cycles > units::FracCycles{0.0}
                                ? p.protected_cycles / p.unprotected_cycles
                                : 1.0;
    const double e_over = p.unprotected_energy_j > units::Joules{0.0}
                              ? p.protected_energy_j / p.unprotected_energy_j
                              : 1.0;
    t.add_row({fmt_sci(p.bit_error_rate, 0),
               fmt_pct(p.delta_percent / 100.0), fmt_fixed(p.accuracy_clean, 4),
               fmt_fixed(p.accuracy_uncompressed, 4),
               fmt_fixed(p.accuracy_compressed, 4),
               fmt_fixed(p.accuracy_protected, 4),
               fmt_pct(p.corrupted_segment_fraction, 1),
               "x" + fmt_fixed(cyc_over, 3), "x" + fmt_fixed(e_over, 3),
               std::to_string(p.retransmissions),
               std::to_string(p.packets_dropped)});
  }
  obs::log("selected layer: %s; fault-free baseline accuracy %.4f\n",
           sweep.selected_layer.c_str(), sweep.baseline_accuracy);
  bench::emit("Extension: accuracy under faults, CRC+retransmission cost", t,
              dir, "ext_fault_sweep");

  std::map<std::string, double> metrics{
      {"baseline_accuracy", sweep.baseline_accuracy},
      {"fault_seed", static_cast<double>(cfg.fault_seed)},
      {"trials", cfg.trials}};
  for (const auto& p : sweep.points) {
    // Every point's absolute cost, which the table shows only as ratios.
    const std::string point = "ber" + fmt_sci(p.bit_error_rate, 0) + ".d" +
                              fmt_fixed(p.delta_percent, 0) + ".";
    metrics[point + "unprotected_cycles"] = p.unprotected_cycles.value();
    metrics[point + "protected_cycles"] = p.protected_cycles.value();
    metrics[point + "unprotected_energy_j"] = p.unprotected_energy_j.value();
    metrics[point + "protected_energy_j"] = p.protected_energy_j.value();
    metrics[point + "crc_failures"] = static_cast<double>(p.crc_failures);
    // Headline rows: the worst BER at each δ.
    if (p.bit_error_rate == cfg.bit_error_rates.back()) {
      const std::string key = "d" + fmt_fixed(p.delta_percent, 0) + ".";
      metrics[key + "accuracy_protected"] = p.accuracy_protected;
      metrics[key + "accuracy_compressed"] = p.accuracy_compressed;
      metrics[key + "protected_cycles"] = p.protected_cycles.value();
      metrics[key + "retransmissions"] =
          static_cast<double>(p.retransmissions);
    }
  }
  obs::RunManifest manifest =
      obs::make_manifest("ext_fault_sweep", lenet.model.name);
  manifest.config["selected_layer"] = sweep.selected_layer;
  manifest.metrics = metrics;
  bench::write_summary(dir, manifest);
  return 0;
}
