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
/// one segment; segments are returned in order and tile [0, n).
std::vector<Segment> segment_weights(std::span<const float> weights,
                                     const SegmenterConfig& config);

/// True when `values` is weakly monotonic (either direction) with tolerance
/// delta, per Eq. (1). Used by tests and assertions.
bool is_weakly_monotonic(std::span<const float> values, double delta);

/// Streaming segmenter: consumes one value at a time and emits segment
/// lengths, never holding more than O(1) state. Used when compressing layers
/// too large to keep two copies of in memory and by the hardware-style tests.
///
/// Restart property: right after a segment boundary the whole state is
/// (prev = the weight that opened the segment, count = 1, both directions
/// open), whatever came before it. So a fresh segmenter started at any index
/// produces the same segments as one that ran from the start, from their
/// first shared boundary on. core::compress() relies on this to segment
/// chunks of a layer on separate lanes and stitch them bit for bit.
class StreamSegmenter {
 public:
  explicit StreamSegmenter(const SegmenterConfig& config) noexcept
      : cfg_(config) {}

  /// Feed the next weight. Returns the length of a segment that was just
  /// closed (i.e. `value` starts a new one), or 0 when the current segment
  /// simply grew.
  std::size_t push(float value) noexcept;

  /// Flush the trailing open segment; returns its length (0 if none).
  std::size_t finish() noexcept;

  /// Length of the currently open segment.
  [[nodiscard]] std::size_t open_length() const noexcept { return count_; }

 private:
  SegmenterConfig cfg_;
  double prev_ = 0.0;
  std::size_t count_ = 0;  // elements in the open segment
  bool can_increase_ = true;
  bool can_decrease_ = true;
};

}  // namespace nocw::core
