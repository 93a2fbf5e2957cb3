#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {

double Spans::Scope::close() {
  if (ms_ < 0.0) {
    const Clock::time_point end = Clock::now();
    ms_ = ms_between(t0_, end);
    if (id_ >= 0) owner_->close(id_, end);
  }
  return ms_;
}

Spans::Scope Spans::open(std::string_view name, std::string_view label) {
  if (!on_) return Scope(this, -1, Clock::now());
  Span s;
  s.name = std::string(name);
  s.label = std::string(label);
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  const Clock::time_point t0 = Clock::now();
  spans_.back().start = t0;
  return Scope(this, id, t0);
}

void Spans::close(int id, Clock::time_point end) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = end;
  s.closed = true;
  // Scopes nest lexically, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Spans::total_ms(std::string_view name, std::string_view label) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (!s.closed || s.name != name) continue;
    if (!label.empty() && s.label != label) continue;
    total += ms_between(s.start, s.end);
  }
  return total;
}

bool Spans::write_totals(const std::string& path) const {
  std::map<std::pair<std::string, std::string>, std::pair<int, double>> sums;
  for (const Span& s : spans_) {
    if (!s.closed) continue;
    auto& [count, ms] = sums[{s.name, s.label}];
    ++count;
    ms += ms_between(s.start, s.end);
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [key, sum] : sums) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\t%d\t%.3f\n", sum.first, sum.second);
    rows.emplace_back(sum.second, key.first + "\t" + key.second + buf);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("span\tlabel\tcount\tms\n", f) >= 0;
  for (const auto& row : rows) {
    ok = ok && std::fputs(row.second.c_str(), f) >= 0;
  }
  return std::fclose(f) == 0 && ok;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  const auto us = [this](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
  };
  std::vector<nocw::obs::TraceEvent> events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.closed) continue;
    nocw::obs::TraceEvent ev;
    ev.name = s.label.empty() ? s.name : s.name + ":" + s.label;
    ev.ph = 'X';
    ev.cat = nocw::obs::kCatEval;
    ev.pid = nocw::obs::kPidEval;
    ev.tid = 0;
    ev.ts = us(s.start);
    ev.dur = us(s.end) - ev.ts;
    // Span ids are 1-based so 0 keeps meaning "no parent".
    const std::uint64_t parent =
        s.parent < 0 ? 0 : static_cast<std::uint64_t>(s.parent) + 1;
    nocw::obs::stamp(ev, /*trace_id=*/1, i + 1, parent);
    events.push_back(std::move(ev));
  }
  const std::string json = nocw::obs::to_chrome_json(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
