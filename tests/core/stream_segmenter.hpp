// Test oracle for the Eq. 1 segmentation: a streaming segmenter that takes
// one branch per weight and holds its state (previous weight, open length,
// which directions are still open) explicitly. The codec finds the same
// segment ends from kill bitmasks (core/segment_scan.hpp); tests compare the
// two.
#pragma once

#include <cstddef>

#include "core/segment.hpp"

namespace nocw::core {

class StreamSegmenter {
 public:
  explicit StreamSegmenter(const SegmenterConfig& config) noexcept
      : cfg_(config) {}

  /// Feed the next weight. Returns the length of a segment that was just
  /// closed (i.e. `value` starts a new one), or 0 when the current segment
  /// simply grew.
  std::size_t push(float value) noexcept {
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

  /// Flush the trailing open segment; returns its length (0 if none).
  std::size_t finish() noexcept {
    const std::size_t closed = count_;
    count_ = 0;
    can_increase_ = can_decrease_ = true;
    return closed;
  }

 private:
  SegmenterConfig cfg_;
  double prev_ = 0.0;
  std::size_t count_ = 0;  // elements in the open segment
  bool can_increase_ = true;
  bool can_decrease_ = true;
};

}  // namespace nocw::core
