#include "core/segment.hpp"

#include "util/stats.hpp"

namespace nocw::core {

double delta_from_percent(double percent, std::span<const float> weights) {
  return delta_from_percent(percent, value_range(weights));
}

double delta_from_percent(double percent, double range) noexcept {
  return percent * range / 100.0;
}

std::size_t StreamSegmenter::push(float value) noexcept {
  const double v = static_cast<double>(value);
  if (count_ == 0) {
    prev_ = v;
    count_ = 1;
    can_increase_ = can_decrease_ = true;
    return 0;
  }
  const double diff = v - prev_;
  const bool within = (diff <= cfg_.delta) && (-diff <= cfg_.delta);
  const bool pair_up = (diff > 0.0) || within;
  const bool pair_down = (diff < 0.0) || within;
  const bool inc_ok = can_increase_ && pair_up;
  const bool dec_ok = can_decrease_ && pair_down;
  const bool capped = cfg_.max_length != 0 && count_ >= cfg_.max_length;
  if ((!inc_ok && !dec_ok) || capped) {
    const std::size_t closed = count_;
    prev_ = v;
    count_ = 1;
    can_increase_ = can_decrease_ = true;
    return closed;
  }
  can_increase_ = inc_ok;
  can_decrease_ = dec_ok;
  prev_ = v;
  ++count_;
  return 0;
}

std::size_t StreamSegmenter::finish() noexcept {
  const std::size_t closed = count_;
  count_ = 0;
  can_increase_ = can_decrease_ = true;
  return closed;
}

std::vector<Segment> segment_weights(std::span<const float> weights,
                                     const SegmenterConfig& config) {
  std::vector<Segment> segments;
  if (weights.empty()) return segments;
  StreamSegmenter seg(config);
  std::size_t start = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::size_t closed = seg.push(weights[i]);
    if (closed != 0) {
      segments.push_back(Segment{start, closed});
      start += closed;
    }
  }
  const std::size_t tail = seg.finish();
  if (tail != 0) segments.push_back(Segment{start, tail});
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
