#include "core/segment.hpp"

#include "core/segment_scan.hpp"
#include "util/stats.hpp"

namespace nocw::core {

double delta_from_percent(double percent, std::span<const float> weights) {
  return delta_from_percent(percent, value_range(weights));
}

double delta_from_percent(double percent, double range) noexcept {
  return percent * range / 100.0;
}

std::vector<Segment> segment_weights(std::span<const float> weights,
                                     const SegmenterConfig& config) {
  std::vector<Segment> segments;
  SegmentScan scan(weights, config.delta, config.max_length);
  for (std::size_t first = 0; first < weights.size();) {
    const std::size_t end = scan.end_of(first, weights.size());
    segments.push_back(Segment{first, end - first});
    first = end;
  }
  return segments;
}

bool is_weakly_monotonic(std::span<const float> values, double delta) {
  bool can_inc = true;
  bool can_dec = true;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double diff =
        static_cast<double>(values[i]) - static_cast<double>(values[i - 1]);
    const bool within = (diff <= delta) && (-diff <= delta);
    can_inc = can_inc && ((diff > 0.0) || within);
    can_dec = can_dec && ((diff < 0.0) || within);
    if (!can_inc && !can_dec) return false;
  }
  return true;
}

}  // namespace nocw::core
