#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw {
namespace {

TEST(RunningStats, EmptyIsZeroCount) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.sum(), 3.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Xoshiro256pp rng(1);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile_sorted({}, 50.0)));
}

TEST(Percentile, SingleSampleForEveryP) {
  const std::vector<double> one{42.0};
  for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(one, p), 42.0) << "p=" << p;
  }
}

TEST(Percentile, AllEqualSamples) {
  const std::vector<double> same(17, 3.5);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(same, p), 3.5) << "p=" << p;
  }
}

TEST(Percentile, LinearInterpolationMatchesNumpy) {
  // numpy.percentile([1,2,3,4], [25,50,75]) -> 1.75, 2.5, 3.25
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 75.0), 3.25);
}

TEST(Percentile, ClampsPToValidRange) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 250.0), 3.0);
}

TEST(TailPercentiles, EmptyIsNaNWithZeroCount) {
  const TailPercentiles t = tail_percentiles_sorted({});
  EXPECT_EQ(t.count, 0u);
  EXPECT_TRUE(std::isnan(t.mean));
  EXPECT_TRUE(std::isnan(t.p50));
  EXPECT_TRUE(std::isnan(t.p90));
  EXPECT_TRUE(std::isnan(t.p99));
  EXPECT_TRUE(std::isnan(t.p999));
  EXPECT_TRUE(std::isnan(t.max));
}

TEST(TailPercentiles, SingleSampleIsThatSampleEverywhere) {
  const std::vector<double> one{42.0};
  const TailPercentiles t = tail_percentiles_sorted(one);
  EXPECT_EQ(t.count, 1u);
  EXPECT_DOUBLE_EQ(t.mean, 42.0);
  EXPECT_DOUBLE_EQ(t.p50, 42.0);
  EXPECT_DOUBLE_EQ(t.p90, 42.0);
  EXPECT_DOUBLE_EQ(t.p99, 42.0);
  EXPECT_DOUBLE_EQ(t.p999, 42.0);
  EXPECT_DOUBLE_EQ(t.max, 42.0);
}

TEST(TailPercentiles, AllEqualSamples) {
  const std::vector<double> same(7, 3.5);
  const TailPercentiles t = tail_percentiles_sorted(same);
  EXPECT_DOUBLE_EQ(t.p50, 3.5);
  EXPECT_DOUBLE_EQ(t.p999, 3.5);
  EXPECT_DOUBLE_EQ(t.max, 3.5);
}

TEST(TailPercentiles, SmallSampleP999DegeneratesTowardMax) {
  // n = 100: the p99.9 rank lands between the last two order statistics,
  // so the value interpolates into the max — documented degeneration.
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  const TailPercentiles t = tail_percentiles_sorted(v);
  EXPECT_DOUBLE_EQ(t.max, 100.0);
  EXPECT_GT(t.p999, t.p99);
  EXPECT_GE(t.p999, 99.0);
  EXPECT_LE(t.p999, 100.0);
  // numpy.percentile(1..100, [50, 90, 99]) -> 50.5, 90.1, 99.01
  EXPECT_DOUBLE_EQ(t.p50, 50.5);
  EXPECT_DOUBLE_EQ(t.p90, 90.1);
  EXPECT_DOUBLE_EQ(t.p99, 99.01);
}

TEST(TailPercentiles, ExactRanksAt1001Samples) {
  // n = 1001: ranks for 50/90/99/99.9 are all integers, so every field is
  // an exact order statistic with no interpolation.
  std::vector<double> v(1001);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i);
  }
  const TailPercentiles t = tail_percentiles_sorted(v);
  EXPECT_DOUBLE_EQ(t.p50, 500.0);
  EXPECT_DOUBLE_EQ(t.p90, 900.0);
  EXPECT_DOUBLE_EQ(t.p99, 990.0);
  EXPECT_DOUBLE_EQ(t.p999, 999.0);
  EXPECT_DOUBLE_EQ(t.max, 1000.0);
  EXPECT_DOUBLE_EQ(t.mean, 500.0);
}

TEST(TailPercentiles, UnsortedConvenienceFormMatchesSorted) {
  const std::vector<double> unsorted{9.0, 1.0, 5.0, 3.0, 7.0};
  std::vector<double> sorted = unsorted;
  std::sort(sorted.begin(), sorted.end());
  const TailPercentiles a = tail_percentiles(unsorted);
  const TailPercentiles b = tail_percentiles_sorted(sorted);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.p999, b.p999);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TailPercentiles, SelectionMatchesSortedBitwise) {
  // Integer-valued samples (like cycle latencies) in shuffled order: the
  // selection form must reproduce the sorted reference bit for bit, mean
  // included (integer partial sums are exact).
  enum class Shape { kSpread, kDuplicates, kAllEqual, kOutlier };
  Xoshiro256pp rng(17);
  for (const std::size_t n : {1, 2, 3, 7, 100, 1000, 1001, 100000}) {
    for (const Shape shape : {Shape::kSpread, Shape::kDuplicates,
                              Shape::kAllEqual, Shape::kOutlier}) {
      std::vector<double> v(n);
      for (double& x : v) {
        switch (shape) {
          case Shape::kSpread:
            x = static_cast<double>(rng.bounded(1'000'000));
            break;
          case Shape::kDuplicates:
            x = static_cast<double>(1000 + 250 * rng.bounded(4));
            break;
          case Shape::kAllEqual:
            x = 4242.0;
            break;
          case Shape::kOutlier:
            x = static_cast<double>(5000 + rng.bounded(100));
            break;
        }
      }
      if (shape == Shape::kOutlier) v[n / 2] = 1e12;
      for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates
        std::swap(v[i - 1], v[rng.bounded(i)]);
      }
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      const TailPercentiles a = tail_percentiles(v);
      const TailPercentiles b = tail_percentiles_sorted(sorted);
      SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                   std::to_string(static_cast<int>(shape)));
      EXPECT_EQ(a.count, b.count);
      EXPECT_TRUE(same_bits(a.mean, b.mean)) << a.mean << " vs " << b.mean;
      EXPECT_TRUE(same_bits(a.p50, b.p50)) << a.p50 << " vs " << b.p50;
      EXPECT_TRUE(same_bits(a.p90, b.p90)) << a.p90 << " vs " << b.p90;
      EXPECT_TRUE(same_bits(a.p99, b.p99)) << a.p99 << " vs " << b.p99;
      EXPECT_TRUE(same_bits(a.p999, b.p999)) << a.p999 << " vs " << b.p999;
      EXPECT_TRUE(same_bits(a.max, b.max)) << a.max << " vs " << b.max;
    }
  }
}

TEST(Mse, IdenticalIsZero) {
  const std::vector<float> a{1.0F, -2.0F, 3.0F};
  EXPECT_DOUBLE_EQ(mean_squared_error(a, a), 0.0);
}

TEST(Mse, KnownDifference) {
  const std::vector<float> a{0.0F, 0.0F};
  const std::vector<float> b{1.0F, -3.0F};
  EXPECT_DOUBLE_EQ(mean_squared_error(a, b), (1.0 + 9.0) / 2.0);
}

TEST(Mse, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_squared_error({}, {}), 0.0);
}

TEST(ValueRange, Basics) {
  const std::vector<float> v{-1.5F, 0.0F, 2.5F};
  EXPECT_DOUBLE_EQ(value_range(v), 4.0);
  EXPECT_DOUBLE_EQ(value_range({}), 0.0);
  const std::vector<float> one{7.0F};
  EXPECT_DOUBLE_EQ(value_range(one), 0.0);
}

// value_range() folds 2^16-float chunks on the pool, each seeded with x[0],
// and then the chunk results in order; it must equal this serial fold bit
// for bit at every thread count.
double serial_value_range(std::span<const float> x) {
  float lo = x[0];
  float hi = x[0];
  for (float v : x) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return static_cast<double>(hi) - static_cast<double>(lo);
}

TEST(ValueRange, ChunkedFoldMatchesSerialBitwise) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Xoshiro256pp rng(91);
  std::vector<float> noise(5 * kChunk + 123);
  for (auto& v : noise) v = static_cast<float>(rng.normal(0.0, 1.0));

  std::vector<std::pair<std::string, std::vector<float>>> cases;
  cases.emplace_back("noise", noise);
  auto nan_first = noise;
  nan_first[0] = kNaN;
  cases.emplace_back("NaN at x[0]", nan_first);
  auto nan_chunk = noise;
  nan_chunk[kChunk] = kNaN;
  nan_chunk[3 * kChunk] = kNaN;
  nan_chunk[3 * kChunk + 1] = kNaN;
  cases.emplace_back("NaN at chunk starts", nan_chunk);
  // Zeros of both signs, in different chunks, as the extremes or ties.
  std::vector<float> zeros(noise.size(), 0.0F);
  for (std::size_t i = 0; i < zeros.size(); i += 7) zeros[i] = -0.0F;
  zeros[0] = -0.0F;
  cases.emplace_back("-0/+0, x[0] = -0", zeros);
  zeros[0] = 0.0F;
  cases.emplace_back("-0/+0, x[0] = +0", zeros);
  zeros[2 * kChunk + 5] = -1.0F;
  cases.emplace_back("-0/+0 ties as the max", zeros);
  for (auto& v : zeros) v = -v;
  cases.emplace_back("-0/+0 ties as the min", zeros);

  const unsigned restore = global_thread_count();
  for (const auto& [name, x] : cases) {
    const double want = serial_value_range(x);
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      const double got = value_range(x);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << name << ", " << threads << " threads: " << got << " vs "
          << want;
    }
  }
  set_global_threads(restore);
  EXPECT_TRUE(std::isnan(value_range(nan_first)));
  EXPECT_EQ(value_range(nan_chunk), serial_value_range(noise));
}

TEST(Entropy, UniformBytesIsEight) {
  std::vector<std::uint64_t> hist(256, 5);
  EXPECT_NEAR(shannon_entropy_hist(hist), 8.0, 1e-12);
}

TEST(Entropy, SingleSymbolIsZero) {
  std::vector<std::uint64_t> hist(256, 0);
  hist[42] = 1000;
  EXPECT_DOUBLE_EQ(shannon_entropy_hist(hist), 0.0);
}

TEST(Entropy, TwoEqualSymbolsIsOneBit) {
  std::vector<std::uint64_t> hist(256, 0);
  hist[0] = 10;
  hist[255] = 10;
  EXPECT_NEAR(shannon_entropy_hist(hist), 1.0, 1e-12);
}

TEST(Entropy, EmptyHistogramIsZero) {
  std::vector<std::uint64_t> hist(256, 0);
  EXPECT_DOUBLE_EQ(shannon_entropy_hist(hist), 0.0);
}

TEST(ByteHistogram, CountsAllBytesOfFloats) {
  const std::vector<float> v{0.0F, 0.0F};
  const auto hist = byte_histogram(v);
  std::uint64_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, v.size() * sizeof(float));
  EXPECT_EQ(hist[0], total);  // 0.0f is all-zero bytes
}

TEST(Entropy, RandomFloatsNearlyMaximal) {
  Xoshiro256pp rng(9);
  std::vector<float> v(200000);
  for (auto& x : v) {
    // Random bit patterns (not random reals - exponent bytes of uniform
    // reals are highly skewed).
    const auto bits = static_cast<std::uint32_t>(rng());
    std::memcpy(&x, &bits, sizeof(x));
  }
  const auto hist = byte_histogram(v);
  EXPECT_GT(shannon_entropy_hist(hist), 7.99);
}

}  // namespace
}  // namespace nocw
