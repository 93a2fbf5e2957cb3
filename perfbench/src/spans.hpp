// Host-time spans for the benchmark's traced run.
//
// Each span records a name, an optional label (model, layer or scheduler),
// its start and end on the steady clock, and the span that was open when it
// started. Spans stay in memory; the per-layer metrics are sums over them,
// and the whole set is written once at exit as Chrome-trace JSON through
// obs::to_chrome_json, so ui.perfetto.dev opens it like any other trace of
// this repository. With recording off, open() returns an inert scope and
// nothing is stored.
//
// Spans are opened only from the benchmark's main thread: the calls it
// times may fan out onto the thread pool internally, but every boundary the
// benchmark records is on the caller's side.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Spans {
 public:
  explicit Spans(bool on) : on_(on), epoch_(Clock::now()) {}

  /// Closes its span when destroyed; close() ends it early and returns the
  /// span's length in milliseconds (measured even when recording is off).
  class Scope {
   public:
    Scope(Spans* owner, int id, Clock::time_point t0)
        : owner_(owner), id_(id), t0_(t0) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double close();

   private:
    Spans* owner_;
    int id_;
    Clock::time_point t0_;
    double ms_ = -1.0;
  };

  [[nodiscard]] Scope open(std::string_view name, std::string_view label = {});

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Sum of the durations of every closed span called `name` (and, when
  /// given, carrying `label`), in milliseconds.
  [[nodiscard]] double total_ms(std::string_view name,
                                std::string_view label = {}) const;

  /// Write every span as Chrome-trace JSON. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Write one tab-separated row per (name, label): span count and total
  /// milliseconds, largest first. Returns false on I/O failure.
  bool write_totals(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string label;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };
  void close(int id, Clock::time_point end);

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

}  // namespace perfbench
