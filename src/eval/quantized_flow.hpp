// Quantization + compression stacking flow (paper Sec. IV-D / Table III).
//
// Mirrors the TFLite hybrid path: every weight kernel is quantized to int8
// with per-tensor affine parameters; biases and BatchNorm statistics stay
// float32. The proposed compression then runs on the *int8 code stream* of
// the selected layer — the monotonic structure survives quantization, which
// is the orthogonality Table III demonstrates. Accuracy is measured against
// the float32 model's outputs (or labels, for the trained LeNet-5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "quant/quantized_codec.hpp"

namespace nocw::eval {

struct QuantizedEvalConfig {
  int probes = 8;
  int topk = 5;
  std::uint64_t probe_seed = 4242;
  unsigned coef_bits = 16;   ///< codec coefficient width on int8 codes
  unsigned length_bits = 8;
};

struct QuantizedDeltaPoint {
  double delta_percent = 0.0;
  double weighted_cr = 0.0;  ///< whole model, float32 baseline vs QT+compressed
  double accuracy = 0.0;     ///< top-k vs the float32 model (or labels)
};

struct QuantizedBaseline {
  double weighted_cr = 0.0;  ///< QT alone (Table III "Weighted CR" column)
  double accuracy = 0.0;     ///< QT alone accuracy
};

class QuantizedDeltaEvaluator {
 public:
  /// Agreement mode (untrained zoo).
  QuantizedDeltaEvaluator(nn::Model& model, const QuantizedEvalConfig& cfg);
  /// Labeled mode (trained LeNet-5).
  QuantizedDeltaEvaluator(nn::Model& model, const nn::Dataset& test,
                          const QuantizedEvalConfig& cfg);
  ~QuantizedDeltaEvaluator();

  QuantizedDeltaEvaluator(const QuantizedDeltaEvaluator&) = delete;
  QuantizedDeltaEvaluator& operator=(const QuantizedDeltaEvaluator&) = delete;

  [[nodiscard]] const QuantizedBaseline& baseline() const noexcept {
    return baseline_;
  }

  /// Compress the selected layer's int8 codes at δ and measure the stacked
  /// accuracy / weighted CR.
  [[nodiscard]] QuantizedDeltaPoint evaluate(double delta_percent);

  [[nodiscard]] const std::string& selected_layer() const noexcept {
    return selected_name_;
  }

 private:
  void prepare(const nn::Tensor& inputs);

  nn::Model* model_;
  QuantizedEvalConfig cfg_;
  int selected_node_ = -1;
  std::string selected_name_;
  quant::QuantizedTensor selected_qt_;  ///< the selected layer's int8 codes
  nn::Tensor captured_;                 ///< input of the selected layer (QT model)
  nn::Tensor fp32_outputs_;             ///< float32 model outputs on probes
  std::vector<int> labels_;
  QuantizedBaseline baseline_;
  std::uint64_t model_fp32_bits_ = 0;
  std::uint64_t model_qt_bits_ = 0;      ///< whole model after quantization
  std::uint64_t selected_qt_bits_ = 0;   ///< selected layer's share of qt bits
};

}  // namespace nocw::eval
