// Streaming statistics and small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace nocw {

/// Single-pass accumulator for mean/variance/min/max (Welford's algorithm).
/// Numerically stable for the long event streams produced by the NoC
/// simulator.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const RunningStats& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(o.n_);
    const double nt = na + nb;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    mean_ = (na * mean_ + nb * o.mean_) / nt;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of `sorted` (ascending), p in [0, 100], linear interpolation
/// between closest ranks (numpy's default). Edge behaviour the p50/p95/p99
/// reports rely on: empty input -> quiet NaN, a single sample -> that sample
/// for every p, all-equal samples -> that value; p <= 0 -> min, p >= 100 ->
/// max. Precondition: `sorted` is ascending (checked in debug builds).
double percentile_sorted(std::span<const double> sorted, double p);

/// The serving layer's tail summary: p50/p90/p99/p99.9 plus mean/max, all
/// of one sample set. Every field follows percentile_sorted's determinism
/// contract (empty -> quiet NaN everywhere except count, single sample ->
/// that sample for every p, all-equal -> that value, exact integer ranks
/// short-circuit without interpolation). p99.9 needs >= 1001 samples before
/// it stops degenerating to the max — callers report it anyway; the
/// interpolation is still deterministic, just max-dominated.
struct TailPercentiles {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

/// Tail summary of `sorted` (ascending; checked in debug builds).
TailPercentiles tail_percentiles_sorted(std::span<const double> sorted);

/// Tail summary of unsorted `samples`, by selection on a copy: O(n) instead
/// of a sort, with every percentile built from percentile_sorted's exact
/// expression. The mean is summed in input order, not sorted order; the two
/// sums agree bit for bit whenever the samples are integer-valued and
/// |sum| < 2^53, since every partial sum is then exact. The uint64 cycle
/// latencies both callers pass (ServeSim, SloMonitor) meet that; for other
/// data the mean may differ from tail_percentiles_sorted's in the last bits.
TailPercentiles tail_percentiles(std::span<const double> samples);

/// Mean squared error between two equally sized sequences.
double mean_squared_error(std::span<const float> a, std::span<const float> b);

/// max(x) - min(x); 0 for empty input.
double value_range(std::span<const float> x);

/// Shannon entropy in bits/symbol of the byte histogram of `bytes`.
double shannon_entropy_bytes(std::span<const std::uint8_t> bytes);

/// Shannon entropy in bits/symbol of an arbitrary integer histogram.
double shannon_entropy_hist(std::span<const std::uint64_t> histogram);

/// Histogram of the raw bytes of a float stream (the paper's Fig. 3 measures
/// the entropy of serialized weights).
std::vector<std::uint64_t> byte_histogram(std::span<const float> values);

}  // namespace nocw
