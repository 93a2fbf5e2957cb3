// Shared plumbing for the reproduction benches.
//
// Every bench prints its table(s) to stdout and mirrors them to
// <exe-dir>/<name>.csv. Scale knobs come from the environment:
//   REPRO_PROBES  probe inputs per model for accuracy evaluation (default 4)
//   REPRO_TRAIN   LeNet-5 training samples (default 1200)
//   REPRO_EPOCHS  LeNet-5 training epochs (default 5)
//   REPRO_WINDOW  NoC sampling window in flits (default 24000)
// Defaults finish the full bench suite in minutes on one laptop core.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "obs/manifest.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace nocw::bench {

inline int probe_count() {
  return static_cast<int>(env_int("REPRO_PROBES", 6, 1));
}

inline std::uint64_t noc_window() {
  return static_cast<std::uint64_t>(env_int("REPRO_WINDOW", 24000, 1));
}

/// Directory of the running executable (argv[0] based), for CSV output.
std::string output_dir(const char* argv0);

/// Print a titled table and write it to `<dir>/results/<slug>.csv`.
/// Returns the CSV's digest: FNV-1a 64 of its bytes, masked to 48 bits so
/// obs::json_number prints it as an exact integer. A bench that records it
/// as a metric puts its CSV under the regression gate's exact match.
double emit(const std::string& title, const Table& table,
            const std::string& dir, const std::string& slug);

/// LeNet-5 trained on the procedural digit set. Trains once per build tree:
/// the checkpoint is cached at `<dir>/lenet5_trained.weights` and reloaded
/// by every subsequent bench. Returns the model and its held-out test set.
struct TrainedLenet {
  nn::Model model;
  nn::Dataset test;
  double test_accuracy = 0.0;
};
TrainedLenet trained_lenet(const std::string& cache_dir);

/// Record a bench's headline results:
///  - writes `<dir>/results/run_<tool>.json`, the bench's provenance
///    manifest (schema nocw.manifest.v1);
///  - upserts one `"<tool>": {...}` line into the aggregated summary
///    (default `<dir>/results/BENCH_summary.json`, path overridable via
///    NOCW_SUMMARY_JSON; schema nocw.bench_summary.v1, one bench per line
///    so independent binaries merge without a JSON parser).
/// Both carry the bench's wall time since process start as the wall_ms
/// value of the `host` map.
/// `m` comes from obs::make_manifest, plus the bench's config strings,
/// metrics and host values (or an evaluator's annotate_manifest).
/// Every bench calls this exactly once — tools/lint.py's [manifest] rule
/// enforces registration. This is the single writer of the summary file.
void write_summary(const std::string& dir, const obs::RunManifest& m);

/// Convenience: obs::make_manifest(name, model) + metrics + write_summary.
void write_summary(const std::string& dir, const std::string& bench_name,
                   const std::map<std::string, double>& metrics,
                   const std::string& model = "");

/// Times this process re-registered a tool that had already written its
/// summary entry. A re-run within one process cannot duplicate the tool's
/// key — the merge is last-writer-wins — but it usually means a bench
/// registered twice by accident, so each repeat warns on stderr and bumps
/// this counter (exposed for tests).
std::uint64_t duplicate_summary_writes();

}  // namespace nocw::bench
