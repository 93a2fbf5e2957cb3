// Serving sweep: offered load x scheduler grid over a ServeSim workload.
//
// Offered load is expressed as a fraction of the accelerator's estimated
// service capacity, so "1.2" always means 20% overload regardless of which
// models the class mix contains. Capacity is the batch-amortized rate: with
// max_batch B, one request costs mix-weighted
//   (full + (B-1)*marginal) / B
// cycles, and capacity_rps is the reciprocal at the configured clock.
// Points above 1.0 are where queues grow without bound and the admission
// queue sheds — exactly the regime where scheduler choice moves p99.
//
// Every grid point replays the *same* seeded arrival timeline per load
// through each scheduler, so comparisons isolate policy. The sweep is a
// serial loop over a serial driver wrapping the thread-parallel (but
// bit-identical) AcceleratorSim, so the whole result diffs clean across
// runs and NOCW_THREADS (ext_serving gates this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrival.hpp"
#include "serve/serve_sim.hpp"

namespace nocw::eval {

struct ServingSweepConfig {
  /// Offered load as a fraction of estimated capacity; > 1.0 is overload.
  std::vector<double> offered_loads{0.3, 0.6, 0.9, 1.2, 1.5};
  /// Policies swept (serve::make_scheduler names).
  std::vector<std::string> schedulers{"fifo", "sjf", "priority"};
  serve::ArrivalProcess process = serve::ArrivalProcess::kPoisson;
  /// Arrivals generated per load point (the horizon is derived:
  /// requests / rate). More requests tighten the tail estimates.
  int requests_per_point = 400;
  std::uint64_t arrival_seed = 0x5E21;
  /// MMPP shape knobs, forwarded when `process` is kMmpp.
  double burst_factor = 4.0;
  std::uint64_t segment_cycles = 200'000;
  /// Driver knobs (accelerator, queue bound, batching policy).
  serve::ServeConfig serve;
};

/// One (scheduler, load) grid point.
struct ServingPoint {
  std::string scheduler;
  double offered_load = 0.0;   ///< configured fraction of capacity
  double offered_rps = 0.0;    ///< the rate actually generated
  serve::ServeResult result;
};

struct ServingSweepResult {
  /// Batch-amortized service capacity of the class mix (requests/sec).
  double capacity_rps = 0.0;
  std::vector<serve::ServiceProfile> profiles;  ///< one per class
  std::vector<std::string> class_names;
  std::vector<ServingPoint> points;  ///< load outer, scheduler inner
};

/// Estimated capacity in requests per cycle (before clock scaling).
[[nodiscard]] double capacity_requests_per_cycle(
    std::span<const serve::RequestClass> classes,
    std::span<const serve::ServiceProfile> profiles,
    std::uint64_t max_batch);

/// Run the grid. `classes` are profiled once (one shared ServeSim).
[[nodiscard]] ServingSweepResult run_serving_sweep(
    std::vector<serve::RequestClass> classes, const ServingSweepConfig& cfg);

/// Observed sweep: the same grid with an SLO monitor and a request-trace
/// sink attached to every point.
struct ObservedSweepConfig {
  ServingSweepConfig base;
  /// One policy for every class (budgets in cycles; <= 0 not enforced).
  obs::SloPolicy slo;
  serve::ReqTraceConfig traces;
  /// Base seed for root trace-id minting; each load point derives its own
  /// so a trace id names one request globally across the sweep.
  std::uint64_t trace_seed = 0x7E11;
};

struct ObservedSweepResult {
  ServingSweepResult sweep;  ///< bit-identical to run_serving_sweep's
  /// One finished monitor/sink per point, parallel to sweep.points.
  std::vector<obs::SloMonitor> slo;
  std::vector<serve::RequestTraceSink> sinks;
};

/// Run the observed grid. sweep.points carries exactly the numbers
/// run_serving_sweep would produce for cfg.base (the hooks only observe);
/// bench/ext_reqtrace gates that equivalence.
[[nodiscard]] ObservedSweepResult run_observed_serving_sweep(
    std::vector<serve::RequestClass> classes, const ObservedSweepConfig& cfg);

}  // namespace nocw::eval
