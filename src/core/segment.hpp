// Weakly monotonic segmentation of a weight succession (paper Sec. III-B).
//
// The succession W = {w_1..w_n} is greedily partitioned into maximal
// sub-successions that are monotonic *in the weak sense* with tolerance δ
// (Eq. 1): a sub-succession is weakly decreasing when every consecutive pair
// satisfies w_i > w_{i+1} OR |w_i - w_{i+1}| <= δ (weakly increasing is
// symmetric). δ = 0 degenerates to ordinary (non-strict) monotonicity; the
// paper's Fig. 5 worst case — a pairwise alternating sequence — collapses to
// a single segment once δ covers the alternation amplitude.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nocw::core {

/// One weakly monotonic sub-succession M_i = W[first, first+length).
struct Segment {
  std::size_t first = 0;   ///< index of the first element in W
  std::size_t length = 0;  ///< number of elements (|M_i| >= 1)
};

struct SegmenterConfig {
  /// Tolerance threshold δ in *absolute* units of the weight values.
  /// Callers that follow the paper's convention (δ as a percentage of
  /// max(W)-min(W)) convert before calling; see delta_from_percent().
  double delta = 0.0;

  /// Maximum segment length (architectural cap so |M_i| fits the codec's
  /// length field). 0 means unlimited.
  std::size_t max_length = 255;
};

/// Convert the paper's δ-as-percent-of-range convention to an absolute δ.
/// Table II reports δ = x% meaning x * (max(W) - min(W)) / 100.
double delta_from_percent(double percent, std::span<const float> weights);
/// The same, for a caller that already knows `range` = max(W) - min(W).
double delta_from_percent(double percent, double range) noexcept;

/// Greedy maximal segmentation. Every element of `weights` belongs to exactly
/// one segment; segments are returned in order and tile [0, n). It runs the
/// same scan (segment_scan.hpp) as every compress entry point.
///
/// Restart property: where a segment ends depends only on the weights from
/// its first one on, whatever came before it. So a segmentation started at
/// any index produces the same segments as one that ran from the start,
/// from their first shared boundary on. core::compress() relies on this to
/// segment chunks of a layer on separate lanes and stitch them bit for bit.
std::vector<Segment> segment_weights(std::span<const float> weights,
                                     const SegmenterConfig& config);

/// True when `values` is weakly monotonic (either direction) with tolerance
/// delta, per Eq. (1). Used by tests and assertions.
bool is_weakly_monotonic(std::span<const float> values, double delta);

}  // namespace nocw::core
