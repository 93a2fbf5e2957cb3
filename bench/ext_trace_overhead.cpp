// Extension: cost of the observability subsystem on a LeNet-5 inference.
//
// Two claims are measured on the full accelerator simulation (compressed
// selected layer, real codec):
//   1. tracing disabled (NOCW_TRACE=0, the default) is free — the per-hop
//      gate is one relaxed atomic load, priced here by a microbench and
//      scaled by the run's actual gate-check count;
//   2. tracing never feeds back into simulation state — latency and energy
//      are bit-identical with the tracer on and off.
// The enabled run's event stream is exported to results/trace_lenet5.json
// (Chrome-trace JSON, drag into ui.perfetto.dev) and the measurements to
// BENCH_summary.json for CI trending.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <vector>

#include "accel/simulator.hpp"
#include "core/codec.hpp"
#include "core/decompressor_unit.hpp"
#include "eval/layer_selection.hpp"
#include "nn/models.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Each timed run gets a fresh simulator. Its phase cache starts empty, so
// the run simulates every NoC phase cycle by cycle; a reused simulator would
// answer the repeats from the cache and time a lookup instead.
double run_ms(const nocw::accel::AccelConfig& cfg,
              const nocw::accel::ModelSummary& summary,
              const nocw::accel::CompressionPlan& plan,
              nocw::accel::InferenceResult& out) {
  const nocw::accel::AcceleratorSim sim(cfg);
  const auto t0 = Clock::now();
  out = sim.simulate(summary, &plan);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Nanoseconds per iteration of a 2^24-iteration loop running `body`.
template <class Body>
double per_iteration_ns(Body body) {
  constexpr std::uint64_t kIters = std::uint64_t{1} << 24;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) body(i);
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(kIters);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int, char** argv) {
  using namespace nocw;
  const std::string dir = bench::output_dir(argv[0]);

  // Bench defaults (user env wins): sample every 4th hop and widen the ring
  // so one full LeNet-5 inference fits without dropping the early layers.
  ::setenv("NOCW_TRACE_BUF", "262144", /*overwrite=*/0);
  if (std::getenv("NOCW_TRACE_SAMPLE") == nullptr) {
    obs::Tracer::set_sample_every(4);
  }

  nn::Model m = nn::make_lenet5();
  const accel::ModelSummary summary = accel::summarize(m);
  accel::AccelConfig cfg;
  cfg.noc_window_flits = bench::noc_window();

  // Compress the selected layer with the real codec so the simulation (and
  // the trace) includes the decompression phase.
  const int node = eval::select_layer(m);
  const auto kernel = m.graph.layer(node).kernel();
  core::CodecConfig codec;
  codec.delta_percent = 2.0;
  const std::vector<float> weights(kernel.begin(), kernel.end());
  const core::CompressedLayer comp = core::compress(weights, codec);
  accel::CompressionPlan plan;
  plan[m.graph.layer(node).name()] =
      accel::LayerCompression{comp.compressed_bits(), comp.original_count};

  const int reps = static_cast<int>(env_int("REPRO_TRACE_REPS", 5, 1));

  // --- tracing runtime-disabled (the NOCW_TRACE=0 default) ---
  obs::Tracer::set_enabled(false);
  accel::InferenceResult r_off;
  std::vector<double> off_ms;
  for (int i = 0; i < reps; ++i) {
    off_ms.push_back(run_ms(cfg, summary, plan, r_off));
  }

  // --- tracing enabled, all categories ---
  obs::Tracer::set_enabled(true);
  obs::Tracer::set_categories(obs::kCatAll);
  obs::Tracer::global().clear();
  accel::InferenceResult r_on;
  const double on_ms = run_ms(cfg, summary, plan, r_on);
  {
    // Drive the cycle-level decompressor FSM over the real segments so the
    // trace carries its Init/Run phase spans too (the simulator charges
    // decompression analytically).
    core::DecompressorUnit unit;
    const std::size_t n =
        std::min<std::size_t>(comp.segments.size(), 64);
    for (std::size_t i = 0; i < n; ++i) {
      unit.load(comp.segments[i]);
      while (unit.busy()) (void)unit.tick();
    }
  }
  const std::uint64_t events = obs::Tracer::global().recorded();
  const std::uint64_t dropped = obs::Tracer::global().dropped();
  std::error_code ec;
  std::filesystem::create_directories(dir + "/results", ec);
  const std::string trace_path =
      env_string("NOCW_TRACE_OUT", dir + "/results/trace_lenet5.json");
  const bool wrote = obs::write_chrome_trace(trace_path);
  obs::Tracer::set_enabled(false);

  // Tracing must be observation-only: identical latency/energy on and off.
  const bool bit_identical =
      r_off.latency.total() == r_on.latency.total() &&
      r_off.energy.total() == r_on.energy.total();

  // --- price of the disabled gate ---
  // The hot NoC sites branch on a bool the Network caches from
  // NOCW_TRACE_ON at construction. A site pays the load and the branch: the
  // time per iteration of a loop that reads such a bool through a volatile,
  // less that of the same loop without it (median of five pairs).
  volatile std::uint64_t sink = 0;
  const volatile bool trace_noc = NOCW_TRACE_ON(obs::kCatNoc);
  std::vector<double> gate_samples;
  for (int i = 0; i < 5; ++i) {
    const double gated = per_iteration_ns([&](std::uint64_t) {
      if (trace_noc) sink = sink + 1;
    });
    const double bare = per_iteration_ns(
        [](std::uint64_t j) { __asm__ volatile("" : : "r"(j)); });
    gate_samples.push_back(gated - bare);
  }
  const double gate_ns = std::max(0.0, median(gate_samples));
  // Gate checks per inference: one per link hop + one per ejected flit, from
  // the enabled run's observation. The hop count is exact: the disabled run
  // takes the network's one switch allocator, which checks the gate on
  // every link grant. The ejected-flit count stands in for the per-packet
  // checks at injection and ejection, which are fewer for packets of two
  // or more flits.
  std::uint64_t checks = 0;
  for (const std::uint64_t v : r_on.noc_obs.link_flits) checks += v;
  for (const std::uint64_t v : r_on.noc_obs.node_ejections) checks += v;
  const double off_med_ms = median(off_ms);
  const double disabled_overhead_pct =
      static_cast<double>(checks) * gate_ns / (off_med_ms * 1e6) * 100.0;

  Table t({"config", "wall ms", "events", "notes"});
  t.add_row({"trace off (median of " + std::to_string(reps) + ")",
             fmt_fixed(off_med_ms, 2), "0",
             "gate " + fmt_fixed(gate_ns, 2) + " ns; est. overhead " +
                 fmt_fixed(disabled_overhead_pct, 4) + "%"});
  t.add_row({"trace on", fmt_fixed(on_ms, 2), std::to_string(events),
             std::string(bit_identical ? "bit-identical results"
                                       : "RESULTS DIVERGED") +
                 ", " + std::to_string(dropped) + " dropped"});
  bench::emit("Extension: tracer overhead on LeNet-5 inference", t, dir,
              "ext_trace_overhead");
  if (wrote) obs::log("trace written to %s\n", trace_path.c_str());

  obs::RunManifest man = obs::make_manifest("ext_trace_overhead", m.name);
  man.metrics = {{"reps", reps},
                 {"gate_checks_per_inference", static_cast<double>(checks)},
                 {"bit_identical", bit_identical ? 1.0 : 0.0},
                 {"trace_events", static_cast<double>(events)},
                 {"trace_events_dropped", static_cast<double>(dropped)},
                 {"latency_cycles", r_on.latency.total().value()},
                 {"energy_j", r_on.energy.total().value()}};
  man.host = {{"disabled_ms_median", off_med_ms},
              {"enabled_ms", on_ms},
              {"gate_check_ns", gate_ns},
              {"disabled_overhead_pct", disabled_overhead_pct}};
  bench::write_summary(dir, man);
  const bool overhead_ok = disabled_overhead_pct < 1.0;
  if (!overhead_ok) {
    std::fprintf(stderr, "disabled-gate overhead %.4f%% is not under 1%%\n",
                 disabled_overhead_pct);
  }
  return bit_identical && wrote && overhead_ok ? 0 : 1;
}
