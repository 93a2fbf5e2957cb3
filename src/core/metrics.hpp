// Compression-efficiency metrics exactly as reported in the paper's Table II.
//
// Only one layer of the model is compressed (the Layer Selection policy of
// Sec. IV-A), so model-level numbers weight the layer-level compression ratio
// by the fraction f of the model's parameters that live in that layer. The
// paper's Table II columns follow (verified against its printed numbers):
//   Weighted CR      = f * CR + (1 - f)
//   Mem fp reduction = f * (1 - 1/CR)
#pragma once

#include <span>

#include "core/codec.hpp"

namespace nocw::core {

/// One row of Table II.
struct CompressionReport {
  double delta_percent = 0.0;       ///< δ column
  double cr = 1.0;                  ///< CR: layer-level compression ratio
  double weighted_cr = 1.0;         ///< Weighted CR column
  double mem_fp_reduction = 0.0;    ///< Mem fp reduction column (fraction)
  double mse = 0.0;                 ///< MSE column
  std::size_t segment_count = 0;
  double mean_segment_length = 0.0;
};

/// Model-level weighted compression ratio for a layer holding fraction
/// `layer_fraction` of the model's parameters.
double weighted_cr(double layer_cr, double layer_fraction) noexcept;

/// Model-level memory-footprint reduction (0..1).
double mem_footprint_reduction(double layer_cr, double layer_fraction) noexcept;

/// The Table II row of one compression (`stats.config.delta_percent` is the
/// δ column) for a layer holding `layer_fraction` of the model parameters.
CompressionReport compression_report(const CompressionStats& stats,
                                     double layer_fraction) noexcept;

/// Compress `layer_weights` at `cfg.delta_percent` and produce the Table II
/// row for a layer accounting for `layer_fraction` of the model parameters.
CompressionReport assess_compression(std::span<const float> layer_weights,
                                     double layer_fraction,
                                     const CodecConfig& cfg);

}  // namespace nocw::core
