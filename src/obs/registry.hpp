// Named, typed metric registry — the export layer over the simulator's
// hot-path counter structs.
//
// The cycle engine keeps its counters in plain structs (noc::NocStats,
// power::EventCounts): field access costs one increment and the layout is
// audited by invariant checks. This registry is the *presentation* of those
// counters: every metric carries a name, an explicit unit from a closed
// vocabulary, and a kind (counter / gauge / histogram), and the whole set
// exports to JSON and CSV in one call. Snapshot bridges (obs/noc_stats_bridge,
// obs/report) copy the structs in; nothing in a simulation hot path touches a
// registry. Unit strings are validated both here (NOCW_CHECK) and statically
// by tools/lint.py's units.vocab rule, so a pJ/J-style mix-up cannot ship under
// an unlabeled name.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/units.hpp"

namespace nocw::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// The closed unit vocabulary. Kept in sync with tools/lint.py
/// (METRIC_UNITS); the lint self-test fails if a unit is accepted here that
/// the static rule would reject.
[[nodiscard]] bool unit_allowed(std::string_view unit) noexcept;

/// One exported metric. Counters/gauges carry `value`; histograms carry the
/// sample summary (count/mean/min/max and p50/p95/p99 via util/stats).
struct MetricSnapshot {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Thread-safe metric store. Names are unique across kinds; re-registering a
/// name with a different kind or unit throws nocw::CheckError — the same
/// metric must mean the same thing everywhere it is written.
class Registry {
 public:
  /// Set a monotonically-meaningful event count.
  void set_counter(std::string_view name, std::string_view unit,
                   std::uint64_t value);
  /// Add to a counter, creating it at zero first if needed.
  void add_counter(std::string_view name, std::string_view unit,
                   std::uint64_t delta);
  /// Set a point-in-time level (utilization, accuracy, ratio...).
  void set_gauge(std::string_view name, std::string_view unit, double value);
  /// Append one sample to a histogram metric.
  void observe(std::string_view name, std::string_view unit, double sample);

  // --- typed overloads (util/units) ---
  // The unit string comes from the quantity's dimension tag at compile time,
  // so a typed publish can never carry the wrong label. Dimensions whose
  // registry_unit is empty (Picojoules, Milliwatts, Words, rates) are
  // rejected at compile time: exporting them directly would be off by a
  // scale factor — convert (to_joules, to_watts) and publish that.

  /// Publish an exact typed counter (Cycles, Flits, Bits...).
  template <class Dim, class Rep,
            class = std::enable_if_t<std::is_integral_v<Rep>>>
  void set_counter(std::string_view name, units::Quantity<Dim, Rep> v) {
    static_assert(!Dim::registry_unit.empty(),
                  "this dimension has no registry unit: convert it "
                  "(to_joules / to_watts) before publishing");
    set_counter(name, Dim::registry_unit,
                static_cast<std::uint64_t>(v.value()));
  }

  /// Publish a typed level (Joules, Seconds, Watts, FracCycles...).
  template <class Dim, class Rep>
  void set_gauge(std::string_view name, units::Quantity<Dim, Rep> v) {
    static_assert(!Dim::registry_unit.empty(),
                  "this dimension has no registry unit: convert it "
                  "(to_joules / to_watts) before publishing");
    set_gauge(name, Dim::registry_unit, v.dvalue());
  }

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Counter/gauge value; histogram count. Throws nocw::CheckError when the
  /// metric does not exist.
  [[nodiscard]] double value(std::string_view name) const;

  /// All metrics, sorted by name.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// {"metrics":[{"name":...,"unit":...,"kind":...,...}]} — one metric per
  /// line, machine-diffable.
  [[nodiscard]] std::string to_json() const;
  /// name,kind,unit,value,count,mean,min,max,p50,p95,p99 rows.
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Process-wide registry for drivers that do not thread their own through.
  static Registry& global();

 private:
  struct Metric {
    std::string unit;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;
    std::vector<double> samples;
  };

  Metric& upsert(std::string_view name, std::string_view unit,
                 MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace nocw::obs
