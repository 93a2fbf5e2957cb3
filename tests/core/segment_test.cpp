#include "core/segment.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stream_segmenter.hpp"
#include "util/rng.hpp"

namespace nocw::core {
namespace {

std::vector<Segment> run(const std::vector<float>& w, double delta,
                         std::size_t max_len = 0) {
  SegmenterConfig cfg;
  cfg.delta = delta;
  cfg.max_length = max_len;
  return segment_weights(w, cfg);
}

std::size_t total_length(const std::vector<Segment>& segs) {
  return std::accumulate(segs.begin(), segs.end(), std::size_t{0},
                         [](std::size_t a, const Segment& s) {
                           return a + s.length;
                         });
}

TEST(Segmenter, EmptyInputYieldsNoSegments) {
  EXPECT_TRUE(run({}, 0.0).empty());
}

TEST(Segmenter, SingleElementIsOneSegment) {
  const auto segs = run({1.0F}, 0.0);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].first, 0u);
  EXPECT_EQ(segs[0].length, 1u);
}

TEST(Segmenter, StrictlyIncreasingIsOneSegment) {
  const auto segs = run({1, 2, 3, 4, 5}, 0.0);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].length, 5u);
}

TEST(Segmenter, StrictlyDecreasingIsOneSegment) {
  const auto segs = run({5, 4, 3, 2, 1}, 0.0);
  ASSERT_EQ(segs.size(), 1u);
}

TEST(Segmenter, ConstantSequenceIsOneSegment) {
  const auto segs = run({2, 2, 2, 2}, 0.0);
  ASSERT_EQ(segs.size(), 1u);
}

TEST(Segmenter, DirectionReversalSplits) {
  // 1 2 3 | 2 1 — up-run then down-run
  const auto segs = run({1, 2, 3, 2, 1}, 0.0);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].length, 3u);
  EXPECT_EQ(segs[1].first, 3u);
  EXPECT_EQ(segs[1].length, 2u);
}

TEST(Segmenter, PaperWorstCaseAlternatingSplitsAtDeltaZero) {
  // Fig. 5(a): pairwise inversely monotonic data — m = n/2 segments.
  std::vector<float> w;
  for (int i = 0; i < 10; ++i) {
    w.push_back(0.0F);
    w.push_back(1.0F);
  }
  const auto segs = run(w, 0.0);
  // Greedy grouping: [0,1] ascending pairs each capped by the next drop.
  // With ties allowed the first pair (0,1) extends until a strict decrease
  // breaks both directions: 0,1 | 0,1 | ... = n/2 segments.
  EXPECT_EQ(segs.size(), w.size() / 2);
}

TEST(Segmenter, PaperWorstCaseCollapsesWithDelta) {
  // Fig. 5(b): with δ >= amplitude the whole alternation is one segment.
  std::vector<float> w;
  for (int i = 0; i < 10; ++i) {
    w.push_back(0.0F);
    w.push_back(1.0F);
  }
  const auto segs = run(w, 1.0);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].length, w.size());
}

TEST(Segmenter, SegmentsTileInput) {
  Xoshiro256pp rng(21);
  std::vector<float> w(5000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  for (double delta : {0.0, 0.05, 0.2, 1.0}) {
    const auto segs = run(w, delta);
    EXPECT_EQ(total_length(segs), w.size());
    std::size_t expect_first = 0;
    for (const auto& s : segs) {
      EXPECT_EQ(s.first, expect_first);
      EXPECT_GE(s.length, 1u);
      expect_first += s.length;
    }
  }
}

TEST(Segmenter, EverySegmentIsWeaklyMonotonic) {
  Xoshiro256pp rng(22);
  std::vector<float> w(3000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  for (double delta : {0.0, 0.1, 0.5}) {
    const auto segs = run(w, delta);
    for (const auto& s : segs) {
      EXPECT_TRUE(is_weakly_monotonic(
          std::span<const float>(w).subspan(s.first, s.length), delta))
          << "segment at " << s.first << " len " << s.length;
    }
  }
}

TEST(Segmenter, SegmentsAreGreedyMaximal) {
  // Extending any segment by the next element must break weak monotonicity
  // (unless the split was forced by the length cap, which is off here).
  Xoshiro256pp rng(23);
  std::vector<float> w(2000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  const double delta = 0.05;
  const auto segs = run(w, delta);
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    const auto& s = segs[i];
    EXPECT_FALSE(is_weakly_monotonic(
        std::span<const float>(w).subspan(s.first, s.length + 1), delta));
  }
}

TEST(Segmenter, LargerDeltaNeverIncreasesSegmentCount) {
  Xoshiro256pp rng(24);
  std::vector<float> w(4000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  std::size_t prev = run(w, 0.0).size();
  for (double delta : {0.05, 0.1, 0.2, 0.5, 1.0, 10.0}) {
    const std::size_t count = run(w, delta).size();
    EXPECT_LE(count, prev) << "delta " << delta;
    prev = count;
  }
}

TEST(Segmenter, HugeDeltaIsOneSegment) {
  Xoshiro256pp rng(25);
  std::vector<float> w(1000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  const auto segs = run(w, 1e9);
  ASSERT_EQ(segs.size(), 1u);
}

TEST(Segmenter, MaxLengthCapEnforced) {
  std::vector<float> w(100);
  std::iota(w.begin(), w.end(), 0.0F);  // one long ascending run
  const auto segs = run(w, 0.0, 16);
  for (const auto& s : segs) EXPECT_LE(s.length, 16u);
  EXPECT_EQ(total_length(segs), w.size());
  EXPECT_EQ(segs.size(), (w.size() + 15) / 16);
}

TEST(Segmenter, DeltaFromPercentUsesRange) {
  const std::vector<float> w{-1.0F, 0.0F, 3.0F};
  EXPECT_DOUBLE_EQ(delta_from_percent(10.0, w), 0.4);
  EXPECT_DOUBLE_EQ(delta_from_percent(0.0, w), 0.0);
}

TEST(StreamSegmenter, MatchesBatchSegmentation) {
  Xoshiro256pp rng(26);
  std::vector<float> w(3000);
  for (auto& x : w) x = static_cast<float>(rng.normal());
  SegmenterConfig cfg;
  cfg.delta = 0.08;
  const auto batch = segment_weights(w, cfg);
  StreamSegmenter ss(cfg);
  std::vector<std::size_t> lengths;
  for (float v : w) {
    const std::size_t closed = ss.push(v);
    if (closed) lengths.push_back(closed);
  }
  const std::size_t tail = ss.finish();
  if (tail) lengths.push_back(tail);
  ASSERT_EQ(lengths.size(), batch.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(lengths[i], batch[i].length);
  }
}

TEST(WeakMonotonic, EdgeCases) {
  EXPECT_TRUE(is_weakly_monotonic({}, 0.0));
  const std::vector<float> one{3.0F};
  EXPECT_TRUE(is_weakly_monotonic(one, 0.0));
  const std::vector<float> updown{0.0F, 1.0F, 0.0F};
  EXPECT_FALSE(is_weakly_monotonic(updown, 0.0));
  EXPECT_TRUE(is_weakly_monotonic(updown, 1.0));
}

// Property sweep: for random data the mean greedy segment length at δ=0
// should approach 1 + 2(e-2) ≈ 2.437 (segments of i.i.d. data).
TEST(Segmenter, MeanSegmentLengthMatchesTheory) {
  Xoshiro256pp rng(27);
  std::vector<float> w(200000);
  for (auto& x : w) x = static_cast<float>(rng.uniform());
  const auto segs = run(w, 0.0);
  const double mean =
      static_cast<double>(w.size()) / static_cast<double>(segs.size());
  EXPECT_NEAR(mean, 2.437, 0.05);
}

}  // namespace
}  // namespace nocw::core
