#include "eval/degradation.hpp"

#include <exception>
#include <memory>
#include <string>

#include "accel/simulator.hpp"
#include "accel/summary.hpp"
#include "eval/flow.hpp"
#include "util/check.hpp"

namespace nocw::eval {

DegradationResult run_degradation_sweep(nn::Model& model,
                                        const nn::Dataset& test,
                                        const DegradationConfig& cfg) {
  NOCW_CHECK(cfg.max_router_faults >= 0);
  NOCW_CHECK(!cfg.delta_percents.empty());

  // The δ axis is independent of the fault axis: compression accuracy and
  // the per-δ weight-stream plans are computed once on the healthy model.
  EvalConfig ecfg;
  ecfg.topk = cfg.topk;
  DeltaEvaluator ev(model, test, ecfg);
  const std::vector<DeltaPoint> dpoints = ev.evaluate_many(cfg.delta_percents);
  const accel::ModelSummary summary = accel::summarize(model);

  DegradationResult out;
  out.selected_layer = ev.selected_layer();
  out.baseline_accuracy = ev.baseline_accuracy();
  out.points.reserve(static_cast<std::size_t>(cfg.max_router_faults + 1) *
                     dpoints.size());

  for (int f = 0; f <= cfg.max_router_faults; ++f) {
    accel::AccelConfig acfg;
    acfg.noc = cfg.noc;
    acfg.noc.routing = noc::Routing::XY;  // west-first is defined over XY
    acfg.noc.resilience.route_mode = noc::RouteMode::WestFirst;
    acfg.noc.fault.permanent_router_outages = f;
    acfg.noc.fault.seed = cfg.fault_seed;
    acfg.noc_window_flits = cfg.noc_window_flits;
    acfg.max_phase_cycles = cfg.max_phase_cycles;

    // Construction itself can refuse an arm (no surviving MI or PE); the
    // arm's rows then record non-completion rather than aborting the sweep
    // — "how many faults until the mesh is unusable" is a result, not an
    // error.
    std::unique_ptr<accel::AcceleratorSim> sim;
    try {
      sim = std::make_unique<accel::AcceleratorSim>(acfg);
    } catch (const std::exception&) {
      sim.reset();
    }

    for (const DeltaPoint& dp : dpoints) {
      DegradationPoint p;
      p.router_faults = f;
      p.delta_percent = dp.delta_percent;
      if (sim != nullptr) {
        p.live_mis = static_cast<int>(sim->live_memory_interfaces().size());
        p.live_pes = static_cast<int>(sim->live_processing_elements().size());
        try {
          accel::CompressionPlan plan;
          plan[ev.selected_layer()] = dp.compression;
          const accel::InferenceResult res = sim->simulate(summary, &plan);
          p.completed = true;
          p.accuracy = dp.accuracy;
          p.latency_cycles = res.latency.total();
          p.energy_j = res.energy.total();
        } catch (const std::exception&) {
          p.completed = false;  // drain timeout / blocked route
        }
      }
      out.points.push_back(p);
    }
  }

  // Degradation ratios against the zero-fault arm at the same δ.
  const std::size_t nd = dpoints.size();
  for (std::size_t i = nd; i < out.points.size(); ++i) {
    DegradationPoint& p = out.points[i];
    const DegradationPoint& healthy = out.points[i % nd];
    if (p.completed && healthy.completed &&
        healthy.latency_cycles > units::FracCycles{0.0} &&
        healthy.energy_j > units::Joules{0.0}) {
      p.latency_vs_healthy = p.latency_cycles / healthy.latency_cycles;
      p.energy_vs_healthy = p.energy_j / healthy.energy_j;
    }
  }
  for (std::size_t i = 0; i < nd && i < out.points.size(); ++i) {
    if (out.points[i].completed) {
      out.points[i].latency_vs_healthy = 1.0;
      out.points[i].energy_vs_healthy = 1.0;
    }
  }
  return out;
}

}  // namespace nocw::eval
