#include "obs/timeseries.hpp"

#include <sstream>
#include <utility>

#include "obs/jsonfmt.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace nocw::obs {


TimeSeries::TimeSeries(std::string name, std::string unit,
                       std::size_t capacity)
    : name_(std::move(name)), unit_(std::move(unit)), capacity_(capacity) {
  NOCW_CHECK(!name_.empty());
  NOCW_CHECK(units::vocab_has(unit_));
  // Compaction halves the size; capacity below 4 would degenerate into
  // keeping a single point forever.
  NOCW_CHECK_GE(capacity_, std::size_t{4});
  points_.reserve(capacity_);
}

void TimeSeries::append(std::uint64_t cycle, double value) {
  if (!points_.empty()) {
    NOCW_CHECK_GE(cycle, points_.back().cycle);
  }
  if (points_.size() == capacity_) {
    // Drop every second point (odd indices): uniform decimation that keeps
    // the first point, halves the footprint, and doubles the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < points_.size(); r += 2) {
      points_[w++] = points_[r];
    }
    points_.resize(w);
    stride_ *= 2;
  }
  points_.push_back(SeriesPoint{cycle, value});
}

TimeSeriesSet::TimeSeriesSet(std::size_t capacity) : capacity_(capacity) {
  NOCW_CHECK_GE(capacity_, std::size_t{4});
}

void TimeSeriesSet::append(std::string_view name, std::string_view unit,
                           std::uint64_t cycle, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(std::string(name),
                      TimeSeries(std::string(name), std::string(unit),
                                 capacity_))
             .first;
  } else {
    NOCW_CHECK_EQ(it->second.unit(), std::string(unit));
  }
  it->second.append(cycle, value);
}

bool TimeSeriesSet::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.find(name) != series_.end();
}

TimeSeries TimeSeriesSet::series(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  NOCW_CHECK(it != series_.end());
  return it->second;
}

std::vector<std::string> TimeSeriesSet::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::size_t TimeSeriesSet::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

void TimeSeriesSet::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
}

std::string TimeSeriesSet::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"schema\":\"nocw.timeseries.v1\",\"series\":[\n";
  std::size_t i = 0;
  for (const auto& [name, s] : series_) {
    os << "{\"name\":\"" << json_escape(name) << "\",\"unit\":\""
       << json_escape(s.unit()) << "\",\"stride\":" << s.compaction_stride()
       << ",\"points\":[";
    for (std::size_t p = 0; p < s.points().size(); ++p) {
      if (p > 0) os << ',';
      os << '[' << s.points()[p].cycle << ','
         << json_number(s.points()[p].value) << ']';
    }
    os << "]}" << (++i < series_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.str();
}

std::string TimeSeriesSet::to_csv() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "series,unit,cycle,value\n";
  for (const auto& [name, s] : series_) {
    for (const SeriesPoint& p : s.points()) {
      os << csv_escape(name) << ',' << csv_escape(s.unit()) << ',' << p.cycle
         << ',' << json_number(p.value) << '\n';
    }
  }
  return os.str();
}

std::uint64_t series_interval_cycles() {
  return static_cast<std::uint64_t>(env_int("NOCW_TS_INTERVAL", 256, 1));
}

std::size_t series_capacity() {
  return static_cast<std::size_t>(
      env_int("NOCW_TS_CAP",
              static_cast<std::int64_t>(TimeSeriesSet::kDefaultCapacity), 4));
}

}  // namespace nocw::obs
