#include "core/metrics.hpp"

namespace nocw::core {

double weighted_cr(double layer_cr, double layer_fraction) noexcept {
  return layer_fraction * layer_cr + (1.0 - layer_fraction);
}

double mem_footprint_reduction(double layer_cr,
                               double layer_fraction) noexcept {
  if (layer_cr <= 0.0) return 0.0;
  return layer_fraction * (1.0 - 1.0 / layer_cr);
}

CompressionReport compression_report(const CompressionStats& stats,
                                     double layer_fraction) noexcept {
  CompressionReport r;
  r.delta_percent = stats.config.delta_percent;
  r.cr = stats.compression_ratio();
  r.weighted_cr = weighted_cr(r.cr, layer_fraction);
  r.mem_fp_reduction = mem_footprint_reduction(r.cr, layer_fraction);
  r.mse = stats.mse();
  r.segment_count = stats.segment_count;
  r.mean_segment_length = stats.mean_segment_length();
  return r;
}

CompressionReport assess_compression(std::span<const float> layer_weights,
                                     double layer_fraction,
                                     const CodecConfig& cfg) {
  return compression_report(compress(layer_weights, cfg).stats(),
                            layer_fraction);
}

}  // namespace nocw::core
