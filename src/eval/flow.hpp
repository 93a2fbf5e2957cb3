// The paper's evaluation flow (Fig. 8), as a reusable library.
//
// A DeltaEvaluator reads one model, the selected layer (Layer Selection
// block), a probe set, and the cached activations feeding the selected
// layer. Because compression perturbs exactly one layer, the expensive
// network prefix runs once; each δ then costs one tail replay whose
// selected layer reads its kernel from a CodecSource: core::compress_stream
// segments, fits, reconstructs and scores the weights in one pass and hands
// the reconstruction to the layer's GEMM one panel of nn::kPanelRows rows
// at a time, so a point holds one panel plus one segment, never the whole
// approximated kernel. The model is never written, so every δ point of a
// sweep replays on the same const model (DESIGN.md §18). Accuracy is top-1
// against labels when a labeled dataset is supplied (LeNet-5), otherwise
// top-5 agreement with the original model's outputs (DESIGN.md §4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "accel/simulator.hpp"
#include "core/codec.hpp"
#include "core/metrics.hpp"
#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "obs/manifest.hpp"

namespace nocw::eval {

struct EvalConfig {
  int probes = 8;          ///< probe inputs for agreement mode
  int topk = 5;            ///< 5 for the ImageNet-scale zoo, 1 for LeNet-5
  std::uint64_t probe_seed = 4242;
  core::CodecConfig codec;  ///< delta_percent is overridden per evaluation
};

/// A kernel as the codec reconstructs it at one δ, read as a panel source:
/// each stream() compresses `weights` afresh with core::compress_stream and
/// hands the reconstruction over nn::kPanelRows rows at a time. stats()
/// then holds that pass's compression statistics.
class CodecSource final : public nn::KernelSource {
 public:
  /// `range` is value_range(weights); `weights` must outlive the source.
  CodecSource(std::span<const float> weights, const core::CodecConfig& codec,
              double range) noexcept
      : weights_(weights), codec_(codec), range_(range) {}

  [[nodiscard]] std::size_t size() const noexcept override {
    return weights_.size();
  }
  void stream(std::size_t row_len,
              const nn::PanelConsumer& consume) override;
  [[nodiscard]] const core::CompressionStats& stats() const noexcept {
    return stats_;
  }

 private:
  std::span<const float> weights_;
  core::CodecConfig codec_;
  double range_;
  core::CompressionStats stats_;
};

/// Everything the benches need about one δ point.
struct DeltaPoint {
  double delta_percent = 0.0;
  double accuracy = 0.0;                  ///< top-k (or top-1) accuracy
  core::CompressionReport report;         ///< the Table II row
  accel::LayerCompression compression;    ///< for the accelerator plan
};

class DeltaEvaluator {
 public:
  /// Agreement mode: probes are generated; baseline = original outputs.
  DeltaEvaluator(const nn::Model& model, const EvalConfig& cfg);

  /// Labeled mode: accuracy is measured against `test` labels (the model
  /// should have been trained first).
  DeltaEvaluator(const nn::Model& model, const nn::Dataset& test,
                 const EvalConfig& cfg);

  /// Accuracy of the unmodified model (top-k agreement mode reports 1.0 by
  /// construction only if the model is deterministic — it is — so labeled
  /// mode is the interesting baseline).
  [[nodiscard]] double baseline_accuracy() const {
    return baseline_accuracy_;
  }

  /// Compress the selected layer at δ and replay the tail with the
  /// approximated kernel; the model is only read.
  [[nodiscard]] DeltaPoint evaluate(double delta_percent);

  /// Evaluate a whole δ sweep. Points are independent, so they run
  /// concurrently on the global thread pool, every lane reading the one
  /// model; results are bit-identical to calling evaluate() serially, in
  /// sweep order, for any NOCW_THREADS.
  [[nodiscard]] std::vector<DeltaPoint> evaluate_many(
      const std::vector<double>& delta_percents);

  /// Fraction of the model's parameters held by the selected layer.
  [[nodiscard]] double selected_fraction() const noexcept {
    return selected_fraction_;
  }
  [[nodiscard]] const std::string& selected_layer() const noexcept {
    return selected_name_;
  }

  /// δ evaluations performed so far (evaluate + evaluate_many points).
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Publish the evaluator's provenance into a run manifest: model name and
  /// evaluation-flow config strings, plus baseline-accuracy / evaluation
  /// metrics. Benches call this right before write_manifest so run.json
  /// records which model/layer/probe setup produced the numbers.
  void annotate_manifest(obs::RunManifest& m) const;

 private:
  void prepare(const nn::Tensor& inputs);
  [[nodiscard]] DeltaPoint evaluate_point(double delta_percent) const;

  const nn::Model* model_;
  EvalConfig cfg_;
  int selected_node_ = -1;
  std::string selected_name_;
  double selected_fraction_ = 0.0;
  double kernel_range_ = 0.0;    ///< value_range of the selected kernel
  nn::Tensor captured_;          ///< activations feeding the selected layer
  nn::Tensor baseline_outputs_;  ///< original model outputs on the probes
  std::vector<int> labels_;      ///< labeled mode only
  double baseline_accuracy_ = 1.0;
  std::uint64_t evaluations_ = 0;
};

}  // namespace nocw::eval
