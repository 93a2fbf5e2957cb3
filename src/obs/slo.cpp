#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/jsonfmt.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace nocw::obs {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

}  // namespace

std::uint64_t slo_window_start(std::uint64_t cycle,
                               std::uint64_t window) noexcept {
  return cycle - cycle % window;
}

SloMonitor::SloMonitor(std::size_t num_classes, const SloPolicy& policy)
    : policy_(policy), open_(num_classes), recent_(num_classes) {
  NOCW_CHECK(policy_.window_cycles > 0);
  NOCW_CHECK(policy_.error_budget > 0.0);
}

SloIngest SloMonitor::roll(std::size_t class_id, std::uint64_t cycle) {
  NOCW_CHECK(class_id < open_.size());
  OpenWindow& w = open_[class_id];
  const std::uint64_t start = slo_window_start(cycle, policy_.window_cycles);
  SloIngest ingest;
  if (w.active) {
    // The driver feeds events in non-decreasing cycle order per class.
    NOCW_CHECK(start >= w.start);
    if (start > w.start) close_window(class_id, &ingest);
  }
  if (!w.active) {
    w.active = true;
    w.start = start;
    w.latencies.clear();
    w.sheds = 0;
    w.max_latency = 0;
    w.exemplar_trace_id = 0;
    w.shed_exemplar_trace_id = 0;
  }
  return ingest;
}

SloIngest SloMonitor::on_complete(std::size_t class_id,
                                  std::uint64_t finish_cycle,
                                  std::uint64_t latency_cycles,
                                  std::uint64_t trace_id) {
  SloIngest ingest = roll(class_id, finish_cycle);
  OpenWindow& w = open_[class_id];
  w.latencies.push_back(static_cast<double>(latency_cycles));
  if (w.exemplar_trace_id == 0 || latency_cycles > w.max_latency) {
    w.max_latency = latency_cycles;
    w.exemplar_trace_id = trace_id;
    ingest.window_max = true;
  }
  return ingest;
}

SloIngest SloMonitor::on_shed(std::size_t class_id, std::uint64_t cycle,
                              std::uint64_t trace_id) {
  SloIngest ingest = roll(class_id, cycle);
  OpenWindow& w = open_[class_id];
  ++w.sheds;
  if (w.shed_exemplar_trace_id == 0) w.shed_exemplar_trace_id = trace_id;
  return ingest;
}

void SloMonitor::close_window(std::size_t class_id, SloIngest* ingest) {
  OpenWindow& w = open_[class_id];
  if (!w.active) return;

  SloWindow out;
  out.class_id = class_id;
  out.window_start = w.start;
  out.completions = w.latencies.size();
  out.sheds = w.sheds;
  out.max_latency_cycles = w.max_latency;
  out.exemplar_trace_id = w.exemplar_trace_id;
  out.shed_exemplar_trace_id = w.shed_exemplar_trace_id;
  if (!w.latencies.empty()) {
    const TailPercentiles tp = tail_percentiles(w.latencies);
    out.p99_cycles = tp.p99;
    out.p999_cycles = tp.p999;
  }
  const std::uint64_t offered = out.completions + out.sheds;
  out.goodput_fraction =
      offered > 0 ? static_cast<double>(out.completions) /
                        static_cast<double>(offered)
                  : 1.0;

  if (policy_.p99_budget_cycles > 0.0 && out.completions > 0 &&
      out.p99_cycles > policy_.p99_budget_cycles) {
    out.breach_mask |= kBreachP99;
  }
  if (policy_.p999_budget_cycles > 0.0 && out.completions > 0 &&
      out.p999_cycles > policy_.p999_budget_cycles) {
    out.breach_mask |= kBreachP999;
  }
  if (policy_.min_goodput_fraction > 0.0 &&
      out.goodput_fraction < policy_.min_goodput_fraction) {
    out.breach_mask |= kBreachGoodput;
  }

  // Burn rates over the lookback including this window, oldest dropped at
  // the longest horizon.
  std::vector<WindowLoad>& recent = recent_[class_id];
  recent.push_back({out.completions, out.sheds});
  const std::uint64_t max_horizon = kBurnHorizonWindows[kBurnHorizons - 1];
  if (recent.size() > max_horizon) recent.erase(recent.begin());
  for (std::size_t h = 0; h < kBurnHorizons; ++h) {
    const std::size_t span = std::min<std::size_t>(
        recent.size(), static_cast<std::size_t>(kBurnHorizonWindows[h]));
    std::uint64_t bad = 0;
    std::uint64_t total = 0;
    for (std::size_t i = recent.size() - span; i < recent.size(); ++i) {
      bad += recent[i].sheds;
      total += recent[i].completions + recent[i].sheds;
    }
    const double fraction =
        total > 0 ? static_cast<double>(bad) / static_cast<double>(total)
                  : 0.0;
    out.burn[h] = fraction / policy_.error_budget;
    max_burn_[h] = std::max(max_burn_[h], out.burn[h]);
  }

  windows_.push_back(out);
  w.active = false;
  if (ingest != nullptr) {
    ingest->closed_window = true;
    ingest->closed_breached = out.breach_mask != 0;
  }
}

void SloMonitor::finish() {
  for (std::size_t c = 0; c < open_.size(); ++c) {
    close_window(c, nullptr);
  }
}

std::uint64_t SloMonitor::windows_breached() const noexcept {
  std::uint64_t n = 0;
  for (const SloWindow& w : windows_) {
    if (w.breach_mask != 0) ++n;
  }
  return n;
}

double SloMonitor::max_burn(std::size_t horizon) const {
  NOCW_CHECK(horizon < kBurnHorizons);
  return max_burn_[horizon];
}

std::string SloMonitor::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"nocw.slo.v1\",\"window_cycles\":"
     << policy_.window_cycles
     << ",\"error_budget\":" << json_number(policy_.error_budget)
     << ",\"p99_budget_cycles\":" << json_number(policy_.p99_budget_cycles)
     << ",\"p999_budget_cycles\":" << json_number(policy_.p999_budget_cycles)
     << ",\"min_goodput_fraction\":"
     << json_number(policy_.min_goodput_fraction) << ",\"windows\":[\n";
  bool first = true;
  for (const SloWindow& w : windows_) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"class_id\":" << w.class_id
       << ",\"window_start\":" << w.window_start
       << ",\"completions\":" << w.completions << ",\"sheds\":" << w.sheds
       << ",\"p99_cycles\":" << json_number(w.p99_cycles)
       << ",\"p999_cycles\":" << json_number(w.p999_cycles)
       << ",\"max_latency_cycles\":" << w.max_latency_cycles
       << ",\"goodput_fraction\":" << json_number(w.goodput_fraction)
       << ",\"breach_mask\":" << w.breach_mask;
    for (std::size_t h = 0; h < kBurnHorizons; ++h) {
      os << ",\"burn_" << kBurnHorizonWindows[h]
         << "w\":" << json_number(w.burn[h]);
    }
    os << ",\"exemplar\":\"" << hex_id(w.exemplar_trace_id)
       << "\",\"shed_exemplar\":\"" << hex_id(w.shed_exemplar_trace_id)
       << "\"}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace nocw::obs
