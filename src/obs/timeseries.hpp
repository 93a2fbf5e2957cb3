// Time-series telemetry: periodic cycle-window snapshots of simulator
// activity, the longitudinal half of the observability stack.
//
// A run's totals reach BENCH_summary.json and the run manifest; a
// TimeSeries answers "how did the run get there": DRAM reads, link flits,
// queue depth and MAC/decompress activity sampled every N simulated cycles,
// so the paper's phase-resolved breakdowns (Fig. 2, Fig. 10) can be seen
// *over time* rather than only as end-of-run sums. Producers are the NoC
// cycle engine (noc::Network::set_series_sink) and the accelerator simulator
// (AccelConfig::series); both stamp points on the inference-global timeline
// (obs::time_base() + local cycle), so a whole multi-layer inference lands
// on one x-axis.
//
// Memory is bounded without losing the shape: each series holds at most
// `capacity` points, and when a append would overflow, the series *compacts*
// — every second point is dropped and the effective sampling stride doubles.
// A 10^9-cycle run therefore costs the same memory as a 10^4-cycle one, at
// proportionally coarser (but uniformly spaced) resolution; first and most
// recent points are always retained. Sampling never feeds back into
// simulation state: with no sink installed (the default) the engines take
// one pointer-null branch and results are bit-identical.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace nocw::obs {

/// One sampled point: value observed at (the end of) `cycle`.
struct SeriesPoint {
  std::uint64_t cycle = 0;
  double value = 0.0;
};

/// One bounded, ring-compacted series of (cycle, value) samples. Units come
/// from the closed vocabulary (units::vocab_has, util/units_vocab.inc); an
/// unknown unit throws at series creation.
class TimeSeries {
 public:
  TimeSeries(std::string name, std::string unit, std::size_t capacity);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

  /// Append one sample. Cycles must be non-decreasing (the producers sample
  /// a monotone clock); violating that throws nocw::CheckError. When the
  /// series is full it first compacts: points at odd indices are dropped,
  /// halving the size and doubling `compaction_stride`.
  void append(std::uint64_t cycle, double value);

  [[nodiscard]] const std::vector<SeriesPoint>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// 2^k where k is the number of compactions performed; the effective
  /// sampling interval is the producer's interval times this stride.
  [[nodiscard]] std::uint64_t compaction_stride() const noexcept {
    return stride_;
  }

 private:
  std::string name_;
  std::string unit_;
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::vector<SeriesPoint> points_;
};

/// A named set of time series, the sink the simulators write into and the
/// exporters read from. Thread-safe for concurrent producers (δ-sweep lanes
/// each simulate their own network); series creation and appends share one
/// mutex, cheap next to the thousands of simulated cycles per sample.
class TimeSeriesSet {
 public:
  /// Default per-series point budget (overridable per set).
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit TimeSeriesSet(std::size_t capacity = kDefaultCapacity);

  /// Append to the named series, creating it on first use. Re-using a name
  /// with a different unit throws nocw::CheckError (one name, one meaning).
  void append(std::string_view name, std::string_view unit,
              std::uint64_t cycle, double value);

  /// Typed append: the unit label comes from the quantity's dimension tag
  /// at compile time, so it can never carry the wrong label. Dimensions
  /// whose registry_unit is empty (Picojoules, Milliwatts, Words, rates) are
  /// rejected at compile time: exporting them directly would be off by a
  /// scale factor, so convert (to_joules, to_watts) first.
  template <class Dim, class Rep>
  void append(std::string_view name, std::uint64_t cycle,
              units::Quantity<Dim, Rep> v) {
    static_assert(!Dim::registry_unit.empty(),
                  "this dimension has no registry unit: convert it "
                  "(to_joules / to_watts) before publishing");
    append(name, Dim::registry_unit, cycle, v.dvalue());
  }

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Snapshot of one series' points. Throws nocw::CheckError when absent.
  [[nodiscard]] TimeSeries series(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// {"schema":"nocw.timeseries.v1","series":[...]} — one series per line
  /// with name/unit/stride and a [[cycle,value],...] point array, sorted by
  /// name. Line-wise machine-checkable (tests/obs/manifest_schema_test).
  [[nodiscard]] std::string to_json() const;
  /// series,unit,cycle,value rows, one per point, sorted by name.
  [[nodiscard]] std::string to_csv() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<std::string, TimeSeries, std::less<>> series_;
};

/// Producer-side sampling interval in simulated cycles (NOCW_TS_INTERVAL,
/// default 256, minimum 1). Read once; benches may override via env before
/// the first simulator runs.
[[nodiscard]] std::uint64_t series_interval_cycles();

/// Per-series point budget (NOCW_TS_CAP, default TimeSeriesSet's 512,
/// minimum 4).
[[nodiscard]] std::size_t series_capacity();

}  // namespace nocw::obs
