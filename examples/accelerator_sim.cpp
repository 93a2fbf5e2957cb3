// Simulate a CNN inference on the NoC accelerator, with and without
// weights compression.
//
//   $ ./accelerator_sim [model] [delta]
//   model: zoo name (default LeNet-5); delta: tolerance %, default 15
//
// Shows the full pipeline: model -> analytic layer summary -> cycle-accurate
// NoC simulation of the weight/feature-map traffic -> latency & energy
// breakdowns, then the same inference with the selected layer compressed at
// the requested δ.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/simulator.hpp"
#include "core/codec.hpp"
#include "eval/layer_selection.hpp"
#include "nn/models.hpp"

namespace {

void print_result(const char* tag, const nocw::accel::InferenceResult& r) {
  std::printf("%s\n", tag);
  std::printf("  latency: %.0f cycles (memory %.0f | noc %.0f | compute "
              "%.0f)\n",
              r.latency.total().value(), r.latency.memory_cycles.value(),
              r.latency.comm_cycles.value(),
              r.latency.compute_cycles.value());
  const auto& e = r.energy;
  std::printf("  energy:  %.2f uJ (comm %.2f | compute %.2f | local mem "
              "%.2f | main mem %.2f)\n",
              e.total().value() * 1e6, e.communication.total().value() * 1e6,
              e.computation.total().value() * 1e6,
              e.local_memory.total().value() * 1e6,
              e.main_memory.total().value() * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nocw;
  const std::string name = argc > 1 ? argv[1] : "LeNet-5";
  const double delta = argc > 2 ? std::atof(argv[2]) : 15.0;

  nn::Model model = nn::make_model(name, /*seed=*/1);
  const accel::ModelSummary summary = accel::summarize(model);
  std::printf("%s on a 4x4 mesh (12 PEs, 4 memory interfaces):\n",
              name.c_str());
  std::printf("  %zu params, %.2f GMACs, %zu traffic-bearing layers\n\n",
              static_cast<std::size_t>(summary.total_params),
              static_cast<double>(summary.total_macs) / 1e9,
              summary.macro_layers().size());

  accel::AcceleratorSim sim;
  const accel::InferenceResult base = sim.simulate(summary);
  print_result("original model:", base);

  // Compress the selected layer and re-simulate.
  const int selected = eval::select_layer(model);
  nn::Layer& layer = model.graph.layer(selected);
  core::CodecConfig ccfg;
  ccfg.delta_percent = delta;
  const core::CompressedLayer compressed =
      core::compress(layer.kernel(), ccfg);
  accel::CompressionPlan plan;
  plan[layer.name()] = accel::LayerCompression{
      compressed.compressed_bits(), compressed.original_count};
  std::printf("\ncompressing '%s' at delta=%.0f%%: CR %.2f, MSE %.2e\n\n",
              layer.name().c_str(), delta, compressed.compression_ratio(),
              compressed.mse());
  const accel::InferenceResult comp = sim.simulate(summary, &plan);
  print_result("compressed model:", comp);

  std::printf("\n=> inference latency -%.1f%%, inference energy -%.1f%%\n",
              100.0 * (1.0 - comp.latency.total() / base.latency.total()),
              100.0 * (1.0 - comp.energy.total() / base.energy.total()));
  return 0;
}
