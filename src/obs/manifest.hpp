// Run-provenance manifest: who produced this metric dump, from what source,
// with which knobs.
//
// A BENCH_*.json without provenance cannot be compared across commits — the
// cross-run regression gate (tools/obs_diff.py) needs to know that two runs
// used the same model, δ grid, thread count and build flavour before a
// latency delta means anything. RunManifest carries exactly that: git
// revision (read live from the source tree's .git, env-overridable), build
// type/compiler (baked at configure time), every NOCW_*/REPRO_* environment
// knob that was set, the driver's configuration strings, and a flat
// name→value map of the run's tier-1 metrics, and a second map of the
// host-dependent numbers (wall-clock times, rates, speed-ups, core counts).
// `to_json()` emits a line-wise schema ("nocw.manifest.v1", one top-level
// key per line) that tests/obs/manifest_schema_test.cpp pins and
// tools/obs_diff.py consumes: every metric must match its baseline exactly,
// host values are reported and never gated. The bench's wall time is
// stamped into `host` as wall_ms by write_summary when the run ends.
#pragma once

#include <map>
#include <string>

namespace nocw::obs {

struct RunManifest {
  std::string schema = "nocw.manifest.v1";
  std::string tool;   ///< producing binary (bench/example name)
  std::string model;  ///< primary model, "" when not model-scoped

  /// Provenance: git_sha, git_dirty, build_type, compiler, tracing.
  std::map<std::string, std::string> build;
  /// NOCW_* / REPRO_* variables present in the environment at capture time.
  std::map<std::string, std::string> env;
  /// Free-form configuration ("delta_grid", "selected_layer", ...).
  std::map<std::string, std::string> config;
  /// Tier-1 metric summary (latency cycles, energy joules, accuracy, ...).
  std::map<std::string, double> metrics;

  int threads = 0;  ///< resolved worker count (NOCW_THREADS)

  /// Host-dependent values: wall-clock times, rates, speed-ups, overhead
  /// ratios and core counts. Declared here, where they are measured, so the
  /// regression gate reports them without gating; everything in `metrics`
  /// must reproduce bit for bit. (Declared after `threads` so every earlier
  /// member keeps its offset.)
  std::map<std::string, double> host;

  /// Line-wise JSON: {"schema":...}\n then one "key":value line per field.
  [[nodiscard]] std::string to_json() const;
};

/// Build a manifest with provenance + environment pre-filled: git revision
/// (env NOCW_GIT_SHA wins, else read from the configured source tree's
/// .git), compile-time build facts, captured NOCW_*/REPRO_* env vars, and
/// the resolved thread count.
[[nodiscard]] RunManifest make_manifest(std::string tool,
                                        std::string model = "");

/// `{"name":value,...}` on one line, in key order, each value through
/// json_number: the form of the metrics and host maps in both the manifest
/// and the bench summary.
[[nodiscard]] std::string json_number_map(
    const std::map<std::string, double>& values);

/// Write `m.to_json()` to `path` (atomically: temp file + rename). Returns
/// false when the file cannot be written.
bool write_manifest(const RunManifest& m, const std::string& path);

}  // namespace nocw::obs
