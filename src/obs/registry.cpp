#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/jsonfmt.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace nocw::obs {

namespace {

const char* kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

bool unit_allowed(std::string_view unit) noexcept {
  // The vocabulary lives in src/util/units_vocab.inc — one definition shared
  // with units.hpp's dimension tags and tools/lint.py's units.vocab rule.
  return units::vocab_has(unit);
}

Registry::Metric& Registry::upsert(std::string_view name,
                                   std::string_view unit, MetricKind kind) {
  NOCW_CHECK(!name.empty());
  NOCW_CHECK(unit_allowed(unit));
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m;
    m.unit = std::string(unit);
    m.kind = kind;
    it = metrics_.emplace(std::string(name), std::move(m)).first;
  } else {
    // A name must mean one thing: same kind, same unit, everywhere.
    NOCW_CHECK(it->second.kind == kind);
    NOCW_CHECK_EQ(it->second.unit, std::string(unit));
  }
  return it->second;
}

void Registry::set_counter(std::string_view name, std::string_view unit,
                           std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mu_);
  upsert(name, unit, MetricKind::Counter).value = static_cast<double>(value);
}

void Registry::add_counter(std::string_view name, std::string_view unit,
                           std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  upsert(name, unit, MetricKind::Counter).value +=
      static_cast<double>(delta);
}

void Registry::set_gauge(std::string_view name, std::string_view unit,
                         double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  upsert(name, unit, MetricKind::Gauge).value = value;
}

void Registry::observe(std::string_view name, std::string_view unit,
                       double sample) {
  const std::lock_guard<std::mutex> lock(mu_);
  upsert(name, unit, MetricKind::Histogram).samples.push_back(sample);
}

bool Registry::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metrics_.find(name) != metrics_.end();
}

double Registry::value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  NOCW_CHECK(it != metrics_.end());
  if (it->second.kind == MetricKind::Histogram) {
    return static_cast<double>(it->second.samples.size());
  }
  return it->second.value;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {
    MetricSnapshot s;
    s.name = name;
    s.unit = m.unit;
    s.kind = m.kind;
    if (m.kind == MetricKind::Histogram) {
      s.count = m.samples.size();
      RunningStats rs;
      for (const double v : m.samples) rs.add(v);
      s.mean = rs.mean();
      s.min = rs.count() ? rs.min() : 0.0;
      s.max = rs.count() ? rs.max() : 0.0;
      std::vector<double> sorted(m.samples);
      std::sort(sorted.begin(), sorted.end());
      s.p50 = sorted.empty() ? 0.0 : percentile_sorted(sorted, 50.0);
      s.p95 = sorted.empty() ? 0.0 : percentile_sorted(sorted, 95.0);
      s.p99 = sorted.empty() ? 0.0 : percentile_sorted(sorted, 99.0);
    } else {
      s.value = m.value;
    }
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string Registry::to_json() const {
  const std::vector<MetricSnapshot> metrics = snapshot();
  std::ostringstream os;
  os << "{\"metrics\":[\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& s = metrics[i];
    os << "  {\"name\":\"" << json_escape(s.name) << "\",\"kind\":\""
       << kind_name(s.kind) << "\",\"unit\":\"" << json_escape(s.unit)
       << "\"";
    if (s.kind == MetricKind::Histogram) {
      os << ",\"count\":" << s.count << ",\"mean\":" << json_number(s.mean)
         << ",\"min\":" << json_number(s.min)
         << ",\"max\":" << json_number(s.max)
         << ",\"p50\":" << json_number(s.p50)
         << ",\"p95\":" << json_number(s.p95)
         << ",\"p99\":" << json_number(s.p99);
    } else {
      os << ",\"value\":" << json_number(s.value);
    }
    os << "}" << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.str();
}

std::string Registry::to_csv() const {
  const std::vector<MetricSnapshot> metrics = snapshot();
  std::ostringstream os;
  os << "name,kind,unit,value,count,mean,min,max,p50,p95,p99\n";
  for (const MetricSnapshot& s : metrics) {
    os << csv_escape(s.name) << ',' << kind_name(s.kind) << ','
       << csv_escape(s.unit) << ',';
    if (s.kind == MetricKind::Histogram) {
      os << ',' << s.count << ',' << json_number(s.mean) << ','
         << json_number(s.min) << ',' << json_number(s.max) << ','
         << json_number(s.p50) << ',' << json_number(s.p95) << ','
         << json_number(s.p99);
    } else {
      os << json_number(s.value) << ",,,,,,,";
    }
    os << '\n';
  }
  return os.str();
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void Registry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_.clear();
}

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

}  // namespace nocw::obs
