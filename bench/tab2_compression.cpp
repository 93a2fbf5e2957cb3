// Table II: compression efficiency (CR, weighted CR, memory-footprint
// reduction, MSE) for the six models across the paper's δ grids.
#include "bench_util.hpp"

#include "core/metrics.hpp"
#include "eval/layer_selection.hpp"
#include "nn/models.hpp"

namespace {

const std::vector<double>& delta_grid(const std::string& model) {
  // The paper sweeps 0..20% for LeNet/AlexNet/Inception and 0..8% for the
  // models whose accuracy collapses earlier (VGG-16, MobileNet, ResNet50).
  static const std::vector<double> kWide{0, 5, 10, 15, 20};
  static const std::vector<double> kNarrow{0, 2, 4, 6, 8};
  if (model == "VGG-16" || model == "MobileNet" || model == "ResNet50") {
    return kNarrow;
  }
  return kWide;
}

}  // namespace

int main(int, char** argv) {
  using namespace nocw;
  const std::string dir = bench::output_dir(argv[0]);

  Table t({"Network Model", "delta", "CR", "Weighted CR", "Mem fp reduction",
           "MSE", "Mean |M_i|"});
  std::map<std::string, double> metrics;
  for (const auto& name : nn::model_names()) {
    nn::Model m = nn::make_model(name, /*seed=*/1);
    const int idx = eval::select_layer(m);
    const auto kernel = m.graph.layer(idx).kernel();
    const double fraction =
        static_cast<double>(m.graph.layer(idx).param_count()) /
        static_cast<double>(m.graph.total_params());
    for (double delta : delta_grid(name)) {
      core::CodecConfig cfg;
      cfg.delta_percent = delta;
      const core::CompressionReport r =
          core::assess_compression(kernel, fraction, cfg);
      // The widest δ is each model's headline compression point.
      if (delta == delta_grid(name).back()) {
        metrics[name + ".cr"] = r.cr;
        metrics[name + ".weighted_cr"] = r.weighted_cr;
      }
      t.add_row({name, fmt_pct(delta / 100.0), fmt_fixed(r.cr, 2),
                 fmt_fixed(r.weighted_cr, 2), fmt_pct(r.mem_fp_reduction),
                 fmt_sci(r.mse, 2), fmt_fixed(r.mean_segment_length, 2)});
    }
  }
  metrics["csv_digest"] = bench::emit(
      "Table II: compression efficiency vs tolerance threshold", t, dir,
      "tab2_compression");
  bench::write_summary(dir, "tab2_compression", metrics);
  return 0;
}
