#include "eval/flow.hpp"

#include "eval/layer_selection.hpp"
#include "eval/probes.hpp"
#include "nn/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {

DeltaEvaluator::DeltaEvaluator(const nn::Model& model, const EvalConfig& cfg)
    : model_(&model), cfg_(cfg) {
  const nn::Tensor probes = make_probes(
      cfg_.probes, model.input_size, model.input_channels, cfg_.probe_seed);
  prepare(probes);
  baseline_accuracy_ = 1.0;  // agreement with itself
}

DeltaEvaluator::DeltaEvaluator(const nn::Model& model, const nn::Dataset& test,
                               const EvalConfig& cfg)
    : model_(&model), cfg_(cfg) {
  labels_ = test.labels;
  prepare(test.images);
  baseline_accuracy_ =
      nn::topk_accuracy(baseline_outputs_, labels_, cfg_.topk);
}

void DeltaEvaluator::prepare(const nn::Tensor& inputs) {
  selected_node_ = select_layer(*model_);
  selected_name_ = model_->graph.layer(selected_node_).name();
  selected_fraction_ =
      static_cast<double>(
          model_->graph.layer(selected_node_).param_count()) /
      static_cast<double>(model_->graph.total_params());
  kernel_range_ = value_range(model_->graph.layer(selected_node_).kernel());

  auto [outputs, captured] =
      model_->graph.forward_capturing(inputs, selected_node_);
  baseline_outputs_ = std::move(outputs);
  captured_ = std::move(captured);
}

DeltaPoint DeltaEvaluator::evaluate(double delta_percent) {
  ++evaluations_;
  return evaluate_point(delta_percent);
}

std::vector<DeltaPoint> DeltaEvaluator::evaluate_many(
    const std::vector<double>& delta_percents) {
  std::vector<DeltaPoint> points(delta_percents.size());
  global_pool().parallel_for(
      0, delta_percents.size(), /*grain=*/1,
      [&](std::size_t i0, std::size_t i1, unsigned /*lane*/) {
        for (std::size_t i = i0; i < i1; ++i) {
          points[i] = evaluate_point(delta_percents[i]);
        }
      });
  evaluations_ += delta_percents.size();
  NOCW_TRACE_INSTANT_ARG(obs::kCatEval, "delta_sweep", obs::kPidEval, 0,
                         evaluations_, "points",
                         static_cast<double>(delta_percents.size()));
  return points;
}

void DeltaEvaluator::annotate_manifest(obs::RunManifest& m) const {
  if (m.model.empty()) m.model = model_->name;
  m.config["selected_layer"] = selected_name_;
  m.config["accuracy_mode"] = labels_.empty() ? "agreement" : "labeled";
  m.config["probes"] = std::to_string(cfg_.probes);
  m.config["topk"] = std::to_string(cfg_.topk);
  m.config["probe_seed"] = std::to_string(cfg_.probe_seed);
  m.metrics["eval.baseline_accuracy"] = baseline_accuracy_;
  m.metrics["eval.selected_fraction"] = selected_fraction_;
  m.metrics["eval.evaluations"] = static_cast<double>(evaluations_);
}

void CodecSource::stream(std::size_t row_len,
                         const nn::PanelConsumer& consume) {
  stats_ = core::compress_stream(weights_, codec_, range_,
                                 nn::kPanelRows * row_len, consume);
}

DeltaPoint DeltaEvaluator::evaluate_point(double delta_percent) const {
  DeltaPoint point;
  point.delta_percent = delta_percent;

  core::CodecConfig codec = cfg_.codec;
  codec.delta_percent = delta_percent;

  // The tail's selected layer compresses its kernel as it multiplies it,
  // panel by panel; no reconstruction of the whole kernel is ever held.
  const nn::Graph& graph = model_->graph;
  CodecSource approx(graph.layer(selected_node_).kernel(), codec,
                     kernel_range_);
  const nn::Tensor outputs = graph.forward_tail(
      captured_, selected_node_, {selected_node_, {}, &approx});
  const core::CompressionStats& stats = approx.stats();
  point.report = core::compression_report(stats, selected_fraction_);
  point.compression.compressed_bits = stats.compressed_bits();
  point.compression.weight_count = stats.original_count;

  if (labels_.empty()) {
    point.accuracy =
        nn::mean_topk_agreement(baseline_outputs_, outputs, cfg_.topk);
  } else {
    point.accuracy = nn::topk_accuracy(outputs, labels_, cfg_.topk);
  }
  return point;
}

}  // namespace nocw::eval
