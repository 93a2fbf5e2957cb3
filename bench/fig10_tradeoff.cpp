// Fig. 10 (a)-(l): accuracy vs inference latency and accuracy vs inference
// energy for every model, sweeping the tolerance threshold δ. Latency and
// energy are normalized to the original (uncompressed) model and broken
// down into the paper's components. LeNet-5 reports genuine top-1 accuracy
// of the in-repo-trained network; the ImageNet-scale models report top-5
// agreement with their own uncompressed outputs (DESIGN.md §4).
#include "bench_util.hpp"

#include <cctype>

#include "accel/simulator.hpp"
#include "eval/flow.hpp"
#include "nn/models.hpp"
#include "obs/log.hpp"

namespace {

using namespace nocw;

const std::vector<double>& delta_grid(const std::string& model) {
  static const std::vector<double> kWide{0, 5, 10, 15, 20};
  static const std::vector<double> kNarrow{0, 2, 4, 6, 8};
  if (model == "VGG-16" || model == "MobileNet" || model == "ResNet50") {
    return kNarrow;
  }
  return kWide;
}

struct SeriesPoint {
  std::string label;
  double accuracy;
  accel::LatencyBreakdown latency;
  power::EnergyBreakdown energy;
};

// Prefix for one model's summary metrics: "lenet-5.d10.latency_cycles"
// style keys feed the dashboard's δ-vs-latency/energy curves.
std::string metric_key(const std::string& model, const std::string& tail) {
  std::string lower = model;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  return lower + "." + tail;
}

// Prints and writes the model's two CSVs; their digests join the summary
// metrics so the regression gate compares the CSVs byte for byte.
void emit_model(const std::string& dir, const nn::Model& model,
                const std::vector<SeriesPoint>& series,
                std::map<std::string, double>& metrics) {
  const units::FracCycles lat0 = series.front().latency.total();
  const units::Joules e0 = series.front().energy.total();

  Table lat({"Config", "Accuracy", "Memory", "Communication", "Computation",
             "Total latency"});
  for (const auto& p : series) {
    lat.add_row({p.label, fmt_fixed(p.accuracy, 4),
                 fmt_fixed(p.latency.memory_cycles / lat0, 3),
                 fmt_fixed(p.latency.comm_cycles / lat0, 3),
                 fmt_fixed(p.latency.compute_cycles / lat0, 3),
                 fmt_fixed(p.latency.total() / lat0, 3)});
  }
  metrics[metric_key(model.name, "latency_csv_digest")] = bench::emit(
      "Fig. 10: " + model.name + " accuracy vs normalized latency", lat, dir,
      "fig10_" + model.name + "_latency");

  Table en({"Config", "Accuracy", "Comm dyn", "Comm leak", "Comp dyn",
            "Comp leak", "LMem dyn", "LMem leak", "MMem dyn", "MMem leak",
            "Total energy"});
  for (const auto& p : series) {
    en.add_row({p.label, fmt_fixed(p.accuracy, 4),
                fmt_fixed(p.energy.communication.dynamic_j / e0, 3),
                fmt_fixed(p.energy.communication.leakage_j / e0, 3),
                fmt_fixed(p.energy.computation.dynamic_j / e0, 3),
                fmt_fixed(p.energy.computation.leakage_j / e0, 3),
                fmt_fixed(p.energy.local_memory.dynamic_j / e0, 3),
                fmt_fixed(p.energy.local_memory.leakage_j / e0, 3),
                fmt_fixed(p.energy.main_memory.dynamic_j / e0, 3),
                fmt_fixed(p.energy.main_memory.leakage_j / e0, 3),
                fmt_fixed(p.energy.total() / e0, 3)});
  }
  metrics[metric_key(model.name, "energy_csv_digest")] = bench::emit(
      "Fig. 10: " + model.name + " accuracy vs normalized energy", en, dir,
      "fig10_" + model.name + "_energy");
}

void run_model(const std::string& dir, nn::Model& model,
               eval::DeltaEvaluator& ev,
               std::map<std::string, double>& metrics) {
  const accel::ModelSummary summary = accel::summarize(model);
  accel::AccelConfig cfg;
  cfg.noc_window_flits = bench::noc_window();
  accel::AcceleratorSim sim(cfg);
  const accel::InferenceResult base = sim.simulate(summary);

  std::vector<SeriesPoint> series;
  series.push_back(SeriesPoint{model.name, ev.baseline_accuracy(),
                               base.latency, base.energy});
  // The δ points are independent; evaluate_many runs them concurrently on
  // the global thread pool (bit-identical to the serial sweep).
  const std::vector<eval::DeltaPoint> points =
      ev.evaluate_many(delta_grid(model.name));
  metrics[metric_key(model.name, "d0.latency_cycles")] =
      base.latency.total().value();
  metrics[metric_key(model.name, "d0.energy_j")] =
      base.energy.total().value();
  metrics[metric_key(model.name, "d0.accuracy")] = ev.baseline_accuracy();
  for (const eval::DeltaPoint& p : points) {
    accel::CompressionPlan plan;
    plan[ev.selected_layer()] = p.compression;
    const accel::InferenceResult comp = sim.simulate(summary, &plan);
    const std::string d = "d" + fmt_fixed(p.delta_percent, 0);
    metrics[metric_key(model.name, d + ".latency_cycles")] =
        comp.latency.total().value();
    metrics[metric_key(model.name, d + ".energy_j")] =
        comp.energy.total().value();
    metrics[metric_key(model.name, d + ".accuracy")] = p.accuracy;
    series.push_back(SeriesPoint{"x-" + fmt_fixed(p.delta_percent, 0),
                                 p.accuracy, comp.latency, comp.energy});
  }
  emit_model(dir, model, series, metrics);

  const auto& last = series.back();
  const double lat_red = 1.0 - last.latency.total() /
                                   series.front().latency.total();
  const double e_red =
      1.0 - last.energy.total() / series.front().energy.total();
  obs::log(
      "[%s] at delta=%s: latency -%s, energy -%s, accuracy %.4f "
      "(baseline %.4f)\n",
      model.name.c_str(), last.label.c_str(), fmt_pct(lat_red).c_str(),
      fmt_pct(e_red).c_str(), last.accuracy, series.front().accuracy);
}

}  // namespace

int main(int, char** argv) {
  const std::string dir = bench::output_dir(argv[0]);

  obs::RunManifest man = obs::make_manifest("fig10_tradeoff");
  {
    // LeNet-5: genuinely trained; top-1 against held-out digits.
    bench::TrainedLenet lenet = bench::trained_lenet(dir);
    eval::EvalConfig cfg;
    cfg.topk = 1;
    eval::DeltaEvaluator ev(lenet.model, lenet.test, cfg);
    run_model(dir, lenet.model, ev, man.metrics);
    // The trained model's evaluation flow anchors the run's provenance.
    ev.annotate_manifest(man);
  }
  for (const auto& name : nn::model_names()) {
    if (name == "LeNet-5") continue;
    nn::Model m = nn::make_model(name, /*seed=*/1);
    eval::EvalConfig cfg;
    cfg.topk = 5;
    cfg.probes = bench::probe_count();
    obs::log("[%s] computing probe activations (%d probes)...\n",
             name.c_str(), cfg.probes);
    eval::DeltaEvaluator ev(m, cfg);
    run_model(dir, m, ev, man.metrics);
  }
  bench::write_summary(dir, man);
  return 0;
}
