#include "eval/serving.hpp"

#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace nocw::eval {

double capacity_requests_per_cycle(
    std::span<const serve::RequestClass> classes,
    std::span<const serve::ServiceProfile> profiles,
    std::uint64_t max_batch) {
  NOCW_CHECK_EQ(classes.size(), profiles.size());
  NOCW_CHECK_GT(max_batch, 0u);
  double mix_total = 0.0;
  for (const serve::RequestClass& c : classes) mix_total += c.mix_fraction;
  NOCW_CHECK_GT(mix_total, 0.0);
  // Mix-weighted amortized cycles per request at full batches.
  double cycles_per_request = 0.0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const double amortized =
        static_cast<double>(profiles[i].batch_cycles(max_batch).value()) /
        static_cast<double>(max_batch);
    cycles_per_request += (classes[i].mix_fraction / mix_total) * amortized;
  }
  NOCW_CHECK_GT(cycles_per_request, 0.0);
  return 1.0 / cycles_per_request;
}

namespace {

/// One grid implementation for both the plain and observed sweeps: the
/// loop structure (and so every simulated number) is shared; the observed
/// variant only *adds* hook objects per point.
ServingSweepResult run_grid(std::vector<serve::RequestClass> classes,
                            const ServingSweepConfig& cfg,
                            const ObservedSweepConfig* obs_cfg,
                            ObservedSweepResult* observed) {
  NOCW_CHECK(!cfg.offered_loads.empty());
  NOCW_CHECK(!cfg.schedulers.empty());
  NOCW_CHECK_GT(cfg.requests_per_point, 0);

  const serve::ServeSim sim(cfg.serve, std::move(classes));

  ServingSweepResult out;
  out.profiles.assign(sim.profiles().begin(), sim.profiles().end());
  for (const serve::RequestClass& c : sim.classes()) {
    out.class_names.push_back(c.name);
  }
  const double cap_rpc = capacity_requests_per_cycle(
      sim.classes(), sim.profiles(), cfg.serve.batch.max_batch);
  out.capacity_rps =
      cap_rpc * cfg.serve.accel.noc.clock_ghz * 1e9;

  std::size_t load_index = 0;
  for (const double load : cfg.offered_loads) {
    NOCW_CHECK_GT(load, 0.0);
    const double rate_per_cycle = load * cap_rpc;
    serve::ArrivalConfig acfg;
    acfg.process = cfg.process;
    acfg.rate_per_mcycle = rate_per_cycle * 1e6;
    acfg.horizon_cycles = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(cfg.requests_per_point) / rate_per_cycle));
    acfg.seed = cfg.arrival_seed;
    acfg.burst_factor = cfg.burst_factor;
    acfg.segment_cycles = cfg.segment_cycles;
    // The same arrival timeline replays through every scheduler at this
    // load point: the comparison isolates policy, not luck.
    const std::vector<serve::Arrival> arrivals =
        serve::generate_arrivals(sim.classes(), acfg);
    for (const std::string& sched : cfg.schedulers) {
      ServingPoint p;
      p.scheduler = sched;
      p.offered_load = load;
      p.offered_rps = rate_per_cycle * cfg.serve.accel.noc.clock_ghz * 1e9;
      if (observed != nullptr) {
        observed->slo.emplace_back(sim.classes().size(), obs_cfg->slo);
        observed->sinks.emplace_back(sim.classes().size(), obs_cfg->traces);
        serve::RunHooks hooks;
        hooks.slo = &observed->slo.back();
        hooks.traces = &observed->sinks.back();
        // Per load point, shared across schedulers: the same arrival
        // timeline gets the same trace ids under every policy.
        hooks.trace_seed =
            obs_cfg->trace_seed ^
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(load_index + 1));
        p.result = sim.run(arrivals, *serve::make_scheduler(sched), hooks);
      } else {
        p.result = sim.run(arrivals, sched);
      }
      out.points.push_back(std::move(p));
    }
    ++load_index;
  }
  return out;
}

}  // namespace

ServingSweepResult run_serving_sweep(std::vector<serve::RequestClass> classes,
                                     const ServingSweepConfig& cfg) {
  return run_grid(std::move(classes), cfg, nullptr, nullptr);
}

ObservedSweepResult run_observed_serving_sweep(
    std::vector<serve::RequestClass> classes, const ObservedSweepConfig& cfg) {
  ObservedSweepResult out;
  const std::size_t points =
      cfg.base.offered_loads.size() * cfg.base.schedulers.size();
  out.slo.reserve(points);
  out.sinks.reserve(points);
  out.sweep = run_grid(std::move(classes), cfg.base, &cfg, &out);
  return out;
}

}  // namespace nocw::eval
