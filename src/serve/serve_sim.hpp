// ServeSim: the request-level driver tying arrivals, admission, scheduling,
// batching and the accelerator together on one cycle timeline.
//
// Event loop (DESIGN.md §14): the clock jumps between the only cycles at
// which anything can change — the next arrival, the batching deadline of
// the oldest queued request, and the completion of the in-flight batch.
// At each decision point, in fixed order: (1) arrivals due at or before
// `now` are admitted (or shed, typed and counted), (2) a finished batch
// retires and its requests' latencies are recorded, (3) if the accelerator
// is idle and the queue can start a batch (max_batch reached, the oldest
// request has waited max_wait, or no arrivals remain), the scheduler picks
// a seed request and up to max_batch-1 more *same-class* requests join it
// in arrival order.
//
// Service cost comes from the per-class ServiceProfile the constructor
// precomputes through the audited AcceleratorSim (the [serve] lint rule
// pins direct simulate() calls to this driver): a batch of n costs
// full + (n-1)*marginal cycles. The loop itself is serial and pure — the
// only parallelism lives inside AcceleratorSim, which is bit-identical
// across NOCW_THREADS, so a whole serving run diffs clean across {1,2,8}
// threads and repeated runs.
//
// Observability: enqueue/shed instants, per-batch spans and per-request
// latency spans go through the obs tracer (category "serve", pid
// kPidServe, tid = class id); when tracing is live the driver re-simulates
// each batch seed under ScopedTimeBase(start_cycle), so the accelerator's
// own layer/phase spans land stitched inside the batch span on the global
// serving timeline (a trace-only replay: results are discarded, timing
// always comes from the profiles, and simulation is pure, so enabling it
// cannot change any number). Queue depth is sampled to an optional
// TimeSeriesSet (unit "requests") at every depth change.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "serve/arrival.hpp"
#include "serve/queue.hpp"
#include "serve/reqtrace.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace nocw::serve {

struct BatchPolicy {
  /// Max same-class requests dispatched together.
  std::uint64_t max_batch = 4;
  /// Max cycles the oldest queued request waits before a batch starts
  /// regardless of its fill level.
  units::Cycles max_wait{50'000};
};

struct ServeConfig {
  accel::AccelConfig accel;  ///< the device every class is profiled on
  QueueConfig queue;
  BatchPolicy batch;
};

/// Latency/volume statistics for one class (or the "all" aggregate).
struct ClassServeStats {
  std::string name;
  int tenant = 0;
  std::uint64_t offered = 0;    ///< arrivals generated for this class
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;       ///< typed rejections (queue_full)
  std::uint64_t completed = 0;
  double shed_rate = 0.0;       ///< shed / offered (0 when nothing offered)
  /// Request latency (finish - arrival) in cycles.
  TailPercentiles latency;
};

/// Optional per-run observability attachments. All pointers may be null;
/// the loop's decisions and the ServeResult are identical whether or not
/// any hook is installed (hooks observe, they never feed back).
struct RunHooks {
  /// Queue-depth timeline sink ("serve.queue_depth").
  obs::TimeSeriesSet* series = nullptr;
  /// Streaming SLO evaluation over completions/sheds.
  obs::SloMonitor* slo = nullptr;
  /// Span-tree retention (tail sample + SLO exemplars). Needs trace_seed.
  RequestTraceSink* traces = nullptr;
  /// Seed for request_trace_context root-id minting (per sweep point, so
  /// trace ids are stable across schedulers replaying one timeline).
  std::uint64_t trace_seed = 0;
};

struct ServeResult {
  std::string scheduler;
  std::vector<ClassServeStats> per_class;  ///< one per RequestClass, in order
  ClassServeStats aggregate;               ///< name "all"
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  /// Cycle at which the last batch finished (drain complete).
  units::Cycles makespan{0};
  /// Completed requests per wall second at the accelerator clock.
  double goodput_rps = 0.0;

  /// Conservation: offered == admitted + shed, completed == admitted (the
  /// driver drains), per-class sums match the aggregate.
  void check_invariants() const;
};

class ServeSim {
 public:
  /// Profiles every class through one shared AcceleratorSim (phase cache
  /// hot after the first class of each flit volume). Throws CheckError on
  /// an empty class set or a class whose marginal cost exceeds its full
  /// cost (the resident-weights plan can only remove work).
  ServeSim(const ServeConfig& cfg, std::vector<RequestClass> classes);

  [[nodiscard]] std::span<const RequestClass> classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] std::span<const ServiceProfile> profiles() const noexcept {
    return profiles_;
  }
  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }

  /// Run one serving experiment: feed `arrivals` (sorted, as produced by
  /// generate_arrivals) through the queue + `scheduler` and drain. When
  /// `series` is non-null the queue-depth timeline is appended to it as
  /// "serve.queue_depth" (one run per sink: cycles restart at 0 each run).
  [[nodiscard]] ServeResult run(std::span<const Arrival> arrivals,
                                const Scheduler& scheduler,
                                obs::TimeSeriesSet* series = nullptr) const;

  /// Convenience: run with a policy made by make_scheduler(name).
  [[nodiscard]] ServeResult run(std::span<const Arrival> arrivals,
                                std::string_view scheduler_name,
                                obs::TimeSeriesSet* series = nullptr) const;

  /// Fully-hooked run: SLO windows stream through `hooks.slo`, span trees
  /// through `hooks.traces` (finish() is called on both before returning).
  /// The returned ServeResult is bit-identical to the hook-less overloads.
  [[nodiscard]] ServeResult run(std::span<const Arrival> arrivals,
                                const Scheduler& scheduler,
                                const RunHooks& hooks) const;

 private:
  ServeConfig cfg_;
  std::vector<RequestClass> classes_;
  std::vector<ServiceProfile> profiles_;
  std::vector<ClassTraceTemplate> trace_templates_;
  accel::AcceleratorSim sim_;
};

}  // namespace nocw::serve
