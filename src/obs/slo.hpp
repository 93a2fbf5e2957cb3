// Streaming SLO monitor: per-class tumbling-window evaluation of the
// serving layer's latency and goodput objectives, with burn rates and
// exemplar trace links.
//
// The serving sweep (eval/serving) reports whole-run percentiles; an SLO is
// a statement about every *window* of the run — "p99 under budget in each
// 1M-cycle window", not "p99 under budget on average". The monitor
// consumes the serving driver's completion/shed stream in event order,
// cuts each class's timeline into tumbling windows aligned to
// slo_window_start(), and at each window close evaluates three budgets
// (p99, p99.9, goodput fraction) plus a multi-horizon burn rate: the shed
// fraction over the last {1, 4, 16} closed windows divided by the error
// budget, the standard fast/slow-burn alerting pair. A burn of 1.0 means
// sheds are consuming the budget exactly as fast as allowed.
//
// Windows materialize only where events land (event-time, not wall-clock:
// a quiet class produces no empty windows), and every window remembers the
// trace id of its max-latency completion and of its first shed — the
// exemplar links that let a breached window be opened as a Perfetto span
// tree (serve/reqtrace). The ingest return value (SloIngest) tells the
// trace sink which requests to pin so exactly those exemplars survive
// tail-based sampling.
//
// Determinism: the monitor is driven from the serial ServeSim event loop,
// holds no clocks or RNG, and its windows/burns are pure functions of the
// (class, cycle, latency, trace id) stream — bit-identical across
// NOCW_THREADS. Window math (slo_window_start) is confined to obs/slo by
// tools/lint.py's [slo] rule so no second, subtly different window
// alignment can appear elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nocw::obs {

/// Start cycle of the tumbling window containing `cycle`. The only window
/// alignment primitive in the tree ([slo] lint rule).
[[nodiscard]] std::uint64_t slo_window_start(std::uint64_t cycle,
                                             std::uint64_t window) noexcept;

/// Per-class service-level objective. Budgets <= 0 are not enforced.
struct SloPolicy {
  std::uint64_t window_cycles = 1'000'000;
  double p99_budget_cycles = 0.0;     ///< breach when window p99 exceeds
  double p999_budget_cycles = 0.0;    ///< breach when window p99.9 exceeds
  double min_goodput_fraction = 0.0;  ///< breach when completed/offered below
  /// Allowed shed fraction; burn rate = shed fraction / error_budget.
  double error_budget = 0.01;
};

/// Breach reasons, OR-ed into SloWindow::breach_mask.
inline constexpr std::uint32_t kBreachP99 = 1u << 0;
inline constexpr std::uint32_t kBreachP999 = 1u << 1;
inline constexpr std::uint32_t kBreachGoodput = 1u << 2;

/// Burn-rate horizons in closed windows: fast (1), medium (4), slow (16).
inline constexpr std::size_t kBurnHorizons = 3;
inline constexpr std::uint64_t kBurnHorizonWindows[kBurnHorizons] = {1, 4, 16};

/// One closed window's verdict. Latencies in cycles; exemplar ids are
/// request trace ids (0 = no such event in the window).
struct SloWindow {
  std::size_t class_id = 0;
  std::uint64_t window_start = 0;
  std::uint64_t completions = 0;
  std::uint64_t sheds = 0;
  double p99_cycles = 0.0;   ///< 0 when the window had no completions
  double p999_cycles = 0.0;
  std::uint64_t max_latency_cycles = 0;
  double goodput_fraction = 1.0;  ///< completions / (completions + sheds)
  std::uint32_t breach_mask = 0;
  /// Shed fraction over the last {1,4,16} closed windows of this class
  /// (fewer early in the run), divided by the error budget.
  double burn[kBurnHorizons] = {0.0, 0.0, 0.0};
  std::uint64_t exemplar_trace_id = 0;       ///< max-latency completion
  std::uint64_t shed_exemplar_trace_id = 0;  ///< first shed in the window
};

/// What one ingested event meant for the window machinery — the protocol
/// that lets the trace sink (serve/reqtrace) pin exemplar span trees
/// without duplicating any window math here.
struct SloIngest {
  /// This completion is its window's max-latency so far: the sink should
  /// replace its pending exemplar for the class with this request.
  bool window_max = false;
  /// Ingesting this event closed the class's previous window.
  bool closed_window = false;
  /// ...and that closed window breached: the sink must promote the
  /// pending exemplar it was holding for the class.
  bool closed_breached = false;
};

/// Streaming evaluator. Feed completions and sheds in non-decreasing cycle
/// order per class (the serial serving loop's natural order), then call
/// finish() to close the final windows before reading results.
class SloMonitor {
 public:
  SloMonitor(std::size_t num_classes, const SloPolicy& policy);

  /// A request of `class_id` finished at `finish_cycle` after
  /// `latency_cycles` (arrival to completion). `trace_id` may be 0.
  SloIngest on_complete(std::size_t class_id, std::uint64_t finish_cycle,
                        std::uint64_t latency_cycles, std::uint64_t trace_id);
  /// A request was shed at `cycle`.
  SloIngest on_shed(std::size_t class_id, std::uint64_t cycle,
                    std::uint64_t trace_id);
  /// Close every class's open window. Idempotent; call before reading.
  void finish();

  /// Closed windows in close order (deterministic: the event stream's
  /// order, then class id for the finish() flush).
  [[nodiscard]] const std::vector<SloWindow>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] const SloPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint64_t windows_breached() const noexcept;
  /// Max burn rate seen at any window close for the given horizon index.
  [[nodiscard]] double max_burn(std::size_t horizon) const;

  /// {"schema":"nocw.slo.v1",...} with one window object per line —
  /// the input for tools/obs_dashboard.py's SLO burn-rate panel.
  [[nodiscard]] std::string to_json() const;

 private:
  struct OpenWindow {
    bool active = false;
    std::uint64_t start = 0;
    std::vector<double> latencies;
    std::uint64_t sheds = 0;
    std::uint64_t max_latency = 0;
    std::uint64_t exemplar_trace_id = 0;
    std::uint64_t shed_exemplar_trace_id = 0;
  };
  struct WindowLoad {
    std::uint64_t completions = 0;
    std::uint64_t sheds = 0;
  };

  /// Roll the class's window forward to the one containing `cycle`,
  /// closing the previous window if `cycle` left it.
  SloIngest roll(std::size_t class_id, std::uint64_t cycle);
  void close_window(std::size_t class_id, SloIngest* ingest);

  SloPolicy policy_;
  std::vector<OpenWindow> open_;
  /// Per class: (completions, sheds) of up to the last 16 closed windows,
  /// oldest first — the burn-rate lookback.
  std::vector<std::vector<WindowLoad>> recent_;
  std::vector<SloWindow> windows_;
  double max_burn_[kBurnHorizons] = {0.0, 0.0, 0.0};
};

}  // namespace nocw::obs
