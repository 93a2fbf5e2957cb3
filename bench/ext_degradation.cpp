// Fault-aware routing equivalence gate + graceful-degradation survival
// curves (DESIGN.md §13).
//
// Two claims are checked on the fig10-style LeNet-5 δ-sweep:
//   (1) Zero faults: the west-first adaptive route table is bit-identical
//       to the XY DOR baseline — every latency and energy number of the
//       adaptive arm must equal the DOR arm exactly, or the bench fails.
//       Fault-aware routing must be a free insurance policy when nothing
//       is broken.
//   (2) k permanent router faults: with west-first routing and endpoint
//       failover the inference still completes (no drain timeout), at a
//       latency/energy penalty the survival curves record per (faults, δ)
//       point into BENCH_summary.json. Every f=1 point must complete.
#include "bench_util.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "eval/degradation.hpp"
#include "eval/flow.hpp"
#include "nn/models.hpp"
#include "obs/log.hpp"

namespace {

using namespace nocw;

struct ArmResult {
  /// Baseline first, then one entry per δ point, in grid order.
  std::vector<double> latency_cycles;
  std::vector<double> energy_j;
};

ArmResult run_arm(noc::RouteMode mode, const accel::ModelSummary& summary,
                  const eval::DeltaEvaluator& ev,
                  const std::vector<eval::DeltaPoint>& points) {
  accel::AccelConfig cfg;
  cfg.noc_window_flits = bench::noc_window();
  cfg.noc.resilience.route_mode = mode;
  accel::AcceleratorSim sim(cfg);

  ArmResult out;
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
  return out;
}

}  // namespace

int main(int, char** argv) {
  const std::string dir = bench::output_dir(argv[0]);
  obs::RunManifest man = obs::make_manifest("ext_degradation", "LeNet-5");

  bench::TrainedLenet lenet = bench::trained_lenet(dir);
  eval::EvalConfig ecfg;
  ecfg.topk = 1;
  eval::DeltaEvaluator ev(lenet.model, lenet.test, ecfg);
  const std::vector<double> grid{0, 4, 8, 12};
  const std::vector<eval::DeltaPoint> points = ev.evaluate_many(grid);
  const accel::ModelSummary summary = accel::summarize(lenet.model);

  // --- (1) zero-fault equivalence gate ----------------------------------
  const ArmResult dor = run_arm(noc::RouteMode::Dor, summary, ev, points);
  const ArmResult wf = run_arm(noc::RouteMode::WestFirst, summary, ev,
                               points);
  bool identical = dor.latency_cycles.size() == wf.latency_cycles.size();
  for (std::size_t i = 0; identical && i < dor.latency_cycles.size(); ++i) {
    identical = dor.latency_cycles[i] == wf.latency_cycles[i] &&
                dor.energy_j[i] == wf.energy_j[i];
  }

  // --- (2) survival curves under permanent router faults ----------------
  eval::DegradationConfig dcfg;
  dcfg.max_router_faults = 3;
  dcfg.delta_percents = {0.0, 8.0};
  dcfg.noc_window_flits = bench::noc_window();
  const eval::DegradationResult deg =
      eval::run_degradation_sweep(lenet.model, lenet.test, dcfg);

  Table t({"Faults", "delta %", "Live MI", "Live PE", "Done", "Accuracy",
           "Latency cyc", "Energy J", "Lat x", "Energy x"});
  std::uint64_t completed = 0;
  bool f1_survives = true;
  for (const eval::DegradationPoint& p : deg.points) {
    if (p.completed) ++completed;
    if (p.router_faults == 1 && !p.completed) f1_survives = false;
    t.add_row({std::to_string(p.router_faults), fmt_fixed(p.delta_percent, 0),
               std::to_string(p.live_mis), std::to_string(p.live_pes),
               p.completed ? "yes" : "NO", fmt_fixed(p.accuracy, 4),
               fmt_fixed(p.latency_cycles.value(), 0),
               fmt_sci(p.energy_j.value(), 3),
               fmt_fixed(p.latency_vs_healthy, 3),
               fmt_fixed(p.energy_vs_healthy, 3)});
  }
  bench::emit("Graceful degradation: permanent router faults x delta", t,
              dir, "ext_degradation");

  man.metrics["routes_identical"] = identical ? 1.0 : 0.0;
  man.metrics["max_router_faults"] =
      static_cast<double>(dcfg.max_router_faults);
  man.metrics["points"] = static_cast<double>(deg.points.size());
  man.metrics["completed_points"] = static_cast<double>(completed);
  man.metrics["baseline_accuracy"] = deg.baseline_accuracy;
  for (const eval::DegradationPoint& p : deg.points) {
    const std::string key = "f" + std::to_string(p.router_faults) + "_d" +
                            std::to_string(static_cast<int>(p.delta_percent));
    man.metrics[key + "_completed"] = p.completed ? 1.0 : 0.0;
    man.metrics[key + "_latency_cycles"] = p.latency_cycles.value();
    man.metrics[key + "_energy_j"] = p.energy_j.value();
    man.metrics[key + "_latency_ratio"] = p.latency_vs_healthy;
  }
  ev.annotate_manifest(man);
  bench::write_summary(dir, man);

  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: zero-fault west-first routing diverged from DOR\n");
    return 1;
  }
  if (!f1_survives) {
    std::fprintf(stderr,
                 "ERROR: inference did not survive a single router fault\n");
    return 1;
  }
  obs::log("[degradation] %llu/%llu points completed, f1 latency x%.3f\n",
           static_cast<unsigned long long>(completed),
           static_cast<unsigned long long>(deg.points.size()),
           deg.points.size() > dcfg.delta_percents.size()
               ? deg.points[dcfg.delta_percents.size()].latency_vs_healthy
               : 0.0);
  return 0;
}
