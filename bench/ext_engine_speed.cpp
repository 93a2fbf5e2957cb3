// Event-driven NoC engine vs the dense reference on the fig10-style
// LeNet-5 δ-sweep (DESIGN.md §11).
//
// Both arms run the identical workload: a baseline inference plus one
// inference per δ grid point, each δ replacing only the selected layer's
// weight stream. The dense arm is the pre-event-engine configuration
// (per-cycle drain scan, no phase memoization); the event arm uses the O(1)
// drain engine with the phase-compilation cache, which rebuilds only the
// recompressed layer's flit stream per point. The arms must agree
// bit-for-bit on every latency and energy number — the speedup is recorded
// as a host value in BENCH_summary.json (ext_engine_speed's host.speedup)
// and the bench fails if the event engine is ever slower or any number
// diverges.
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <vector>

#include "accel/simulator.hpp"
#include "eval/flow.hpp"
#include "nn/models.hpp"
#include "obs/log.hpp"

namespace {

using namespace nocw;

struct ArmResult {
  double wall_ms = 0.0;
  /// Baseline first, then one entry per δ point, in grid order.
  std::vector<double> latency_cycles;
  std::vector<double> energy_j;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

ArmResult run_arm(noc::EngineMode engine, bool reuse_phases,
                  const accel::ModelSummary& summary,
                  const eval::DeltaEvaluator& ev,
                  const std::vector<eval::DeltaPoint>& points) {
  accel::AccelConfig cfg;
  cfg.noc_window_flits = bench::noc_window();
  cfg.noc.engine = engine;
  cfg.reuse_noc_phases = reuse_phases;
  accel::AcceleratorSim sim(cfg);

  ArmResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const accel::InferenceResult base = sim.simulate(summary);
  out.latency_cycles.push_back(base.latency.total().value());
  out.energy_j.push_back(base.energy.total().value());
  for (const eval::DeltaPoint& p : points) {
    accel::CompressionPlan plan;
    plan[ev.selected_layer()] = p.compression;
    const accel::InferenceResult comp = sim.simulate(summary, &plan);
    out.latency_cycles.push_back(comp.latency.total().value());
    out.energy_j.push_back(comp.energy.total().value());
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.cache_hits = sim.noc_phase_cache_hits();
  out.cache_misses = sim.noc_phase_cache_misses();
  return out;
}

}  // namespace

int main(int, char** argv) {
  const std::string dir = bench::output_dir(argv[0]);
  obs::RunManifest man = obs::make_manifest("ext_engine_speed", "LeNet-5");

  // Shared, untimed preparation: train/load LeNet-5 and compress the
  // selected layer at every δ once. The timed arms differ only in the NoC
  // engine and the phase cache.
  bench::TrainedLenet lenet = bench::trained_lenet(dir);
  eval::EvalConfig ecfg;
  ecfg.topk = 1;
  eval::DeltaEvaluator ev(lenet.model, lenet.test, ecfg);
  const std::vector<double> grid{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  const std::vector<eval::DeltaPoint> points = ev.evaluate_many(grid);
  const accel::ModelSummary summary = accel::summarize(lenet.model);

  const ArmResult dense = run_arm(noc::EngineMode::Dense,
                                  /*reuse_phases=*/false, summary, ev, points);
  const ArmResult event = run_arm(noc::EngineMode::Event,
                                  /*reuse_phases=*/true, summary, ev, points);

  // Equivalence gate: the event engine and the cache are speed levers only.
  bool identical = dense.latency_cycles.size() == event.latency_cycles.size();
  for (std::size_t i = 0; identical && i < dense.latency_cycles.size(); ++i) {
    identical = dense.latency_cycles[i] == event.latency_cycles[i] &&
                dense.energy_j[i] == event.energy_j[i];
  }
  const double speedup =
      event.wall_ms > 0.0 ? dense.wall_ms / event.wall_ms : 0.0;

  Table t({"Engine", "Wall ms", "Speedup", "Cache hits", "Cache misses",
           "d0 latency", "d18 latency"});
  t.add_row({"dense", fmt_fixed(dense.wall_ms, 1), "1.00",
             std::to_string(dense.cache_hits),
             std::to_string(dense.cache_misses),
             fmt_fixed(dense.latency_cycles.front(), 0),
             fmt_fixed(dense.latency_cycles.back(), 0)});
  t.add_row({"event", fmt_fixed(event.wall_ms, 1), fmt_fixed(speedup, 2),
             std::to_string(event.cache_hits),
             std::to_string(event.cache_misses),
             fmt_fixed(event.latency_cycles.front(), 0),
             fmt_fixed(event.latency_cycles.back(), 0)});
  bench::emit("Engine speed: dense reference vs event-driven δ-sweep", t,
              dir, "ext_engine_speed");

  man.host["dense_ms"] = dense.wall_ms;
  man.host["event_ms"] = event.wall_ms;
  man.host["speedup"] = speedup;
  man.metrics["delta_points"] = static_cast<double>(points.size());
  man.metrics["cache_hits"] = static_cast<double>(event.cache_hits);
  man.metrics["cache_misses"] = static_cast<double>(event.cache_misses);
  man.metrics["results_identical"] = identical ? 1.0 : 0.0;
  ev.annotate_manifest(man);
  bench::write_summary(dir, man);

  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: event engine diverged from the dense reference\n");
    return 1;
  }
  if (speedup < 1.0) {
    std::fprintf(stderr,
                 "ERROR: event engine slower than dense (%.2fx)\n", speedup);
    return 1;
  }
  obs::log("[engine] %.1f ms dense -> %.1f ms event (%.2fx, %llu cache "
           "hits)\n",
           dense.wall_ms, event.wall_ms, speedup,
           static_cast<unsigned long long>(event.cache_hits));
  return 0;
}
