#include "util/stats.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nocw {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    NOCW_CHECK(sorted[i - 1] <= sorted[i]);
  }
  p = std::clamp(p, 0.0, 100.0);
  // All-equal samples: return the value itself, bit-exact for every p. The
  // interpolated path would also land here numerically, but making it a
  // short-circuit keeps exports byte-stable even for mixed ±0.0 samples.
  if (sorted.front() == sorted.back()) return sorted.front();
  // Linear interpolation between closest ranks over [0, n-1].
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return sorted[lo];  // exact rank: no interpolation noise
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

TailPercentiles tail_percentiles_sorted(std::span<const double> sorted) {
  TailPercentiles t;
  t.count = sorted.size();
  if (sorted.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    t.mean = t.p50 = t.p90 = t.p99 = t.p999 = t.max = nan;
    return t;
  }
  double acc = 0.0;
  for (double v : sorted) acc += v;
  t.mean = acc / static_cast<double>(sorted.size());
  t.p50 = percentile_sorted(sorted, 50.0);
  t.p90 = percentile_sorted(sorted, 90.0);
  t.p99 = percentile_sorted(sorted, 99.0);
  t.p999 = percentile_sorted(sorted, 99.9);
  t.max = sorted.back();
  return t;
}

TailPercentiles tail_percentiles(std::span<const double> samples) {
  std::vector<double> v(samples.begin(), samples.end());
  if (v.empty()) return tail_percentiles_sorted(v);
  TailPercentiles t;
  t.count = v.size();
  double lo = v.front();
  double hi = v.front();
  double acc = 0.0;
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    acc += x;
  }
  t.mean = acc / static_cast<double>(v.size());
  t.max = hi;
  if (lo == hi) {  // percentile_sorted's all-equal short-circuit
    t.p50 = t.p90 = t.p99 = t.p999 = lo;
    return t;
  }
  // Ascending p, so each selection only partitions the part to the right of
  // the previous order statistic: [first, end) holds exactly the samples
  // ranked at or above `first`.
  std::size_t first = 0;
  const auto at = [&](double p) {
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto k = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(k);
    if (k >= first) {
      std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(first),
                       v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
      first = k + 1;
    }
    if (frac == 0.0) return v[k];
    // frac > 0 puts rank below n-1, so order statistic k+1 exists and is
    // the least sample right of k.
    const double next = *std::min_element(
        v.begin() + static_cast<std::ptrdiff_t>(k + 1), v.end());
    return v[k] + frac * (next - v[k]);
  };
  t.p50 = at(50.0);
  t.p90 = at(90.0);
  t.p99 = at(99.0);
  t.p999 = at(99.9);
  return t;
}

double mean_squared_error(std::span<const float> a, std::span<const float> b) {
  NOCW_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

namespace {

// Floats per value_range() chunk. A constant, so the split never depends on
// the thread count.
constexpr std::size_t kRangeChunk = std::size_t{1} << 16;

struct MinMax {
  float lo;
  float hi;
};

MinMax fold_min_max(MinMax m, std::span<const float> x) {
  for (float v : x) {
    m.lo = std::min(m.lo, v);
    m.hi = std::max(m.hi, v);
  }
  return m;
}

}  // namespace

double value_range(std::span<const float> x) {
  if (x.empty()) return 0.0;
  // Every chunk folds from x[0], as the serial loop does, and the chunk
  // results fold in order. std::min/max keep the earlier of two equal values
  // and, from a non-NaN start, never take a NaN, so the result equals the
  // serial fold's bit for bit: NaN when x[0] is NaN, and the same sign of
  // zero on -0/+0 ties.
  const MinMax seed{x[0], x[0]};
  const std::size_t chunks = (x.size() + kRangeChunk - 1) / kRangeChunk;
  std::vector<MinMax> parts(chunks, seed);
  global_pool().parallel_for(
      0, chunks, 1, [&](std::size_t first, std::size_t last, unsigned) {
        for (std::size_t c = first; c < last; ++c) {
          const std::size_t begin = c * kRangeChunk;
          parts[c] = fold_min_max(
              seed,
              x.subspan(begin, std::min(kRangeChunk, x.size() - begin)));
        }
      });
  MinMax m = seed;
  for (const MinMax& p : parts) {
    m.lo = std::min(m.lo, p.lo);
    m.hi = std::max(m.hi, p.hi);
  }
  return static_cast<double>(m.hi) - static_cast<double>(m.lo);
}

double shannon_entropy_hist(std::span<const std::uint64_t> histogram) {
  std::uint64_t total = 0;
  for (auto c : histogram) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (auto c : histogram) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double shannon_entropy_bytes(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> hist(256, 0);
  for (auto b : bytes) ++hist[b];
  return shannon_entropy_hist(hist);
}

std::vector<std::uint64_t> byte_histogram(std::span<const float> values) {
  std::vector<std::uint64_t> hist(256, 0);
  for (float v : values) {
    std::uint8_t raw[sizeof(float)];
    std::memcpy(raw, &v, sizeof(float));
    for (auto b : raw) ++hist[b];
  }
  return hist;
}

}  // namespace nocw
