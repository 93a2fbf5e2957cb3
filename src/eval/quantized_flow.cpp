#include "eval/quantized_flow.hpp"

#include <algorithm>

#include "eval/layer_selection.hpp"
#include "eval/probes.hpp"
#include "nn/metrics.hpp"

namespace nocw::eval {

namespace {
constexpr std::uint64_t kPerTensorMetadataBits = 64;  // scale + zero_point
}

QuantizedDeltaEvaluator::QuantizedDeltaEvaluator(
    nn::Model& model, const QuantizedEvalConfig& cfg)
    : model_(&model), cfg_(cfg) {
  const nn::Tensor probes = make_probes(
      cfg_.probes, model.input_size, model.input_channels, cfg_.probe_seed);
  prepare(probes);
}

QuantizedDeltaEvaluator::QuantizedDeltaEvaluator(
    nn::Model& model, const nn::Dataset& test, const QuantizedEvalConfig& cfg)
    : model_(&model), cfg_(cfg) {
  labels_ = test.labels;
  prepare(test.images);
}

void QuantizedDeltaEvaluator::prepare(const nn::Tensor& inputs) {
  selected_node_ = select_layer(*model_);
  selected_name_ = model_->graph.layer(selected_node_).name();

  // Float32 reference outputs before any quantization.
  fp32_outputs_ = model_->graph.forward(inputs);

  // Quantize every kernel; biases and BatchNorm statistics stay float32
  // (TFLite hybrid). Keep the selected layer's codes for the δ sweep, and
  // install dequantized weights everywhere (the inference-time view).
  model_fp32_bits_ =
      static_cast<std::uint64_t>(model_->graph.total_params()) * 32;
  std::uint64_t qt_bits = 0;
  std::uint64_t non_kernel_params = model_->graph.total_params();
  for (int idx : model_->graph.parameterized_nodes()) {
    nn::Layer& layer = model_->graph.layer(idx);
    // BatchNorm "kernels" (gamma) are statistics, not weights: keep float32.
    if (layer.type() == nn::LayerType::BatchNorm) continue;
    auto kernel = layer.kernel();
    non_kernel_params -= kernel.size();
    const quant::QuantizedTensor qt = quant::quantize_tensor(kernel);
    const std::vector<float> deq = qt.dequantize();
    std::copy(deq.begin(), deq.end(), kernel.begin());
    const std::uint64_t bits =
        static_cast<std::uint64_t>(qt.data.size()) * 8 +
        kPerTensorMetadataBits;
    qt_bits += bits;
    if (idx == selected_node_) {
      selected_qt_ = qt;
      selected_qt_bits_ = bits;
    }
  }
  qt_bits += non_kernel_params * 32;  // biases, BN params stay float32
  model_qt_bits_ = qt_bits;

  // Quantized model outputs + the captured input of the selected layer.
  auto [outputs, captured] =
      model_->graph.forward_capturing(inputs, selected_node_);
  captured_ = std::move(captured);

  baseline_.weighted_cr = static_cast<double>(model_fp32_bits_) /
                          static_cast<double>(model_qt_bits_);
  baseline_.accuracy =
      labels_.empty()
          ? nn::mean_topk_agreement(fp32_outputs_, outputs, cfg_.topk)
          : nn::topk_accuracy(outputs, labels_, cfg_.topk);
}

QuantizedDeltaEvaluator::~QuantizedDeltaEvaluator() = default;

QuantizedDeltaPoint QuantizedDeltaEvaluator::evaluate(double delta_percent) {
  QuantizedDeltaPoint point;
  point.delta_percent = delta_percent;

  quant::QuantizedCodecConfig qcfg;
  qcfg.delta_percent = delta_percent;
  qcfg.coef_bits = cfg_.coef_bits;
  qcfg.length_bits = cfg_.length_bits;
  const core::CompressedLayer compressed =
      quant::compress_quantized(selected_qt_, qcfg);

  // Whole-model bits with the selected layer's int8 stream replaced by the
  // compressed stream (its metadata still needed for dequantization).
  const std::uint64_t stacked_bits = model_qt_bits_ - selected_qt_bits_ +
                                     compressed.compressed_bits() +
                                     kPerTensorMetadataBits;
  point.weighted_cr = static_cast<double>(model_fp32_bits_) /
                      static_cast<double>(stacked_bits);

  // Reconstruct codes -> dequantize -> tail replay with them as the
  // selected layer's kernel (the installed int8 view stays untouched).
  const quant::QuantizedTensor rec =
      quant::decompress_quantized(compressed, selected_qt_.params);
  const std::vector<float> deq = rec.dequantize();
  const nn::Tensor outputs = model_->graph.forward_tail(
      captured_, selected_node_, {selected_node_, deq});

  point.accuracy =
      labels_.empty()
          ? nn::mean_topk_agreement(fp32_outputs_, outputs, cfg_.topk)
          : nn::topk_accuracy(outputs, labels_, cfg_.topk);
  return point;
}

}  // namespace nocw::eval
