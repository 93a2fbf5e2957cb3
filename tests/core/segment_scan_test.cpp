// The kill-bitmask scan (core/segment_scan.hpp) against the one-branch-per-
// weight oracle (stream_segmenter.hpp): every segment boundary must agree, on
// inputs built to hit the scan's edges — zero and exactly ±δ differences,
// NaN, ±inf, subnormals, length caps longer than a 64-pair word, ends on
// word edges and on compress()'s chunk edges.
#include "core/segment_scan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/segment.hpp"
#include "stream_segmenter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::core {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

/// Segment lengths as the oracle closes them, one push per weight.
std::vector<std::size_t> oracle_lengths(std::span<const float> w,
                                        double delta, std::size_t max_length) {
  SegmenterConfig cfg;
  cfg.delta = delta;
  cfg.max_length = max_length;
  StreamSegmenter seg(cfg);
  std::vector<std::size_t> out;
  for (float v : w) {
    if (const std::size_t closed = seg.push(v)) out.push_back(closed);
  }
  if (const std::size_t tail = seg.finish()) out.push_back(tail);
  return out;
}

/// The same through SegmentScan::end_of, from 0 to the end.
std::vector<std::size_t> scan_lengths(std::span<const float> w, double delta,
                                      std::size_t max_length) {
  SegmentScan scan(w, delta, max_length);
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < w.size();) {
    const std::size_t e = scan.end_of(s, w.size());
    out.push_back(e - s);
    s = e;
  }
  return out;
}

/// Scan, segment_weights and the oracle agree on every boundary.
void expect_same_boundaries(std::span<const float> w, double delta,
                            std::size_t max_length) {
  SCOPED_TRACE("n " + std::to_string(w.size()) + " delta " +
               std::to_string(delta) + " cap " + std::to_string(max_length));
  const std::vector<std::size_t> want = oracle_lengths(w, delta, max_length);
  EXPECT_EQ(scan_lengths(w, delta, max_length), want);
  SegmenterConfig cfg;
  cfg.delta = delta;
  cfg.max_length = max_length;
  std::vector<std::size_t> got;
  for (const Segment& s : segment_weights(w, cfg)) got.push_back(s.length);
  EXPECT_EQ(got, want);
}

std::vector<float> uniform_weights(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<float> w(n);
  for (float& x : w) x = static_cast<float>(rng.uniform());
  return w;
}

// The length caps of length_bits 1, 8 and 16; 2^16 is longer than the
// scan's 64-pair word. 0 is unlimited.
const std::size_t kCaps[] = {2, 256, std::size_t{1} << 16, 0};

TEST(SegmentScan, SmallSizesMatchOracle) {
  for (std::size_t n : {0, 1, 2, 63, 64, 65}) {
    const std::vector<float> w = uniform_weights(n, 100 + n);
    for (double delta : {0.0, 0.1, 1.0}) {
      for (std::size_t cap : kCaps) expect_same_boundaries(w, delta, cap);
    }
  }
}

TEST(SegmentScan, EqualRunsAtDeltaZeroMatchOracle) {
  // Runs of equal weights joined by steps up, down or none: at δ = 0 a zero
  // difference keeps both directions open.
  Xoshiro256pp rng(7);
  std::vector<float> w(20'000);
  float v = 0.0F;
  for (float& x : w) {
    const std::uint64_t r = rng.bounded(8);
    if (r == 0) v += 1.0F;
    if (r == 1) v -= 1.0F;
    x = v;
  }
  for (std::size_t cap : kCaps) expect_same_boundaries(w, 0.0, cap);
}

TEST(SegmentScan, DifferencesOfExactlyDeltaMatchOracle) {
  // Steps of 0, ±δ and ±2δ with δ a power of two, so every difference is
  // exact: ±δ itself is within tolerance, ±2δ is not.
  const double delta = 0.25;
  Xoshiro256pp rng(8);
  std::vector<float> w(20'000);
  float v = 0.0F;
  for (float& x : w) {
    v += 0.25F * static_cast<float>(static_cast<int>(rng.bounded(5)) - 2);
    x = v;
  }
  for (double d : {delta, 0.0, 0.5, 0.2499999999, 0.2500000001}) {
    for (std::size_t cap : kCaps) expect_same_boundaries(w, d, cap);
  }
}

TEST(SegmentScan, NonFiniteAndSubnormalWeightsMatchOracle) {
  const float specials[] = {kNaN,    kInf,  -kInf, kDenorm, -kDenorm,
                            0.0F,    -0.0F, 1.0F,  -1.0F,   2 * kDenorm,
                            1e30F,   -1e30F};
  Xoshiro256pp rng(9);
  std::vector<float> w(20'000);
  for (float& x : w) {
    x = rng.bounded(3) == 0 ? specials[rng.bounded(std::size(specials))]
                            : static_cast<float>(rng.uniform());
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // δ NaN (range of a layer starting with NaN), negative and infinite too.
  for (double delta : {0.0, 0.3, 1e-45, -0.1, nan, inf}) {
    for (std::size_t cap : kCaps) expect_same_boundaries(w, delta, cap);
  }
}

TEST(SegmentScan, Fig5AlternatingPatternMatchesOracle) {
  std::vector<float> w(1'000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = (i % 2) ? 1.0F : 0.0F;
  for (double delta : {0.0, 0.5, 1.0}) {
    for (std::size_t cap : kCaps) expect_same_boundaries(w, delta, cap);
  }
  EXPECT_EQ(oracle_lengths(w, 1.0, 0), std::vector<std::size_t>{w.size()});
}

TEST(SegmentScan, LongRunsPastTheCapMatchOracle) {
  // A ramp and a constant run far longer than one word and than 2^16.
  std::vector<float> w(200'000);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = i < 150'000 ? static_cast<float>(i) : 7.0F;
  }
  for (double delta : {0.0, 2.0}) {
    for (std::size_t cap : kCaps) expect_same_boundaries(w, delta, cap);
  }
}

TEST(SegmentScan, EndsOnWordEdgesMatchOracle) {
  // An ascending ramp of length e, then a descending one: the first segment
  // ends at e, placed on and around the 64-pair word edges.
  for (std::size_t e : {2, 3, 62, 63, 64, 65, 66, 127, 128, 129, 191, 192}) {
    std::vector<float> w(300);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = i < e ? static_cast<float>(i)
                   : static_cast<float>(e) - static_cast<float>(i - e) - 2.0F;
    }
    EXPECT_EQ(scan_lengths(w, 0.0, 0).front(), e);
    for (std::size_t cap : kCaps) expect_same_boundaries(w, 0.0, cap);
  }
}

TEST(SegmentScan, EndDependsOnlyOnWeightsFromItsStart) {
  // The restart property: from any index, not just a boundary, the scan's
  // end equals a fresh oracle's first segment from there, and a bound below
  // it caps the result.
  const std::vector<float> w = uniform_weights(5'000, 11);
  const std::span<const float> all(w);
  for (double delta : {0.0, 0.05}) {
    SegmentScan scan(w, delta, 256);
    for (std::size_t s = 0; s < w.size(); s += 37) {
      const std::size_t want =
          s + oracle_lengths(all.subspan(s), delta, 256).front();
      EXPECT_EQ(scan.end_of(s, w.size()), want) << "s " << s;
      const std::size_t bound = s + (want - s + 1) / 2;
      EXPECT_EQ(scan.end_of(s, bound), bound);
    }
  }
}

TEST(SegmentScan, RandomWeightsMatchOracleAcrossDelta) {
  const std::vector<float> w = uniform_weights(100'000, 12);
  for (double delta : {0.0, 0.01, 0.02, 0.05, 0.08, 0.2, 1.0}) {
    for (std::size_t cap : kCaps) expect_same_boundaries(w, delta, cap);
  }
}

// compress() cuts a layer into 2^17-weight chunks and stitches lanes that
// start at chunk starts. Here monotone runs turn exactly at, and one weight
// either side of, chunk multiples, and every boundary of compress() (1, 2
// and 8 threads) is the oracle's.
TEST(SegmentScan, CompressBoundariesOnChunkEdgesMatchOracle) {
  constexpr std::size_t kChunk = std::size_t{1} << 17;
  const std::size_t n = 5 * kChunk + 100;
  std::vector<float> w = uniform_weights(n, 13);
  for (std::size_t k = 1; k <= 4; ++k) {
    // 300 rising weights, then 300 falling ones from `turn`: k·chunk,
    // k·chunk + 1, k·chunk - 1 and k·chunk again.
    const std::size_t turn = k * kChunk - 1 + k % 3;
    for (std::size_t i = turn - 300; i < turn; ++i) {
      w[i] = static_cast<float>(i - (turn - 300)) * 1e-3F;
    }
    for (std::size_t i = turn; i < turn + 300; ++i) {
      w[i] = 0.3F - static_cast<float>(i - turn) * 1e-3F;
    }
  }
  const unsigned threads = global_thread_count();
  for (double pct : {0.0, 2.0, 20.0}) {
    for (unsigned length_bits : {1U, 8U, 16U}) {
      CodecConfig cfg;
      cfg.delta_percent = pct;
      cfg.length_bits = length_bits;
      const std::vector<std::size_t> want =
          oracle_lengths(w, delta_from_percent(pct, value_range(w)),
                         std::size_t{1} << length_bits);
      for (unsigned t : {1U, 2U, 8U}) {
        SCOPED_TRACE("δ " + std::to_string(pct) + "% length_bits " +
                     std::to_string(length_bits) + " threads " +
                     std::to_string(t));
        set_global_threads(t);
        const CompressedLayer layer = compress(w, cfg);
        std::vector<std::size_t> got;
        for (const CompressedSegment& s : layer.segments) {
          got.push_back(s.length);
        }
        EXPECT_EQ(got, want);
      }
    }
  }
  set_global_threads(threads);
}

}  // namespace
}  // namespace nocw::core
