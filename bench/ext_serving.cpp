// Serving-layer load sweep: offered load x scheduler grid with
// determinism and scheduling gates (DESIGN.md §14).
//
// Workload: three request classes on one 4x4-mesh accelerator —
//   lenet_d0   LeNet-5, uncompressed            (tenant 0, weight 4)
//   lenet_d8   LeNet-5, delta=8% compressed     (tenant 0, weight 4)
//   alexnet_d0 AlexNet, uncompressed            (tenant 1, weight 1)
// Tenant 0 is the interactive majority; AlexNet is the heavy batch tenant
// whose head-of-line blocking is what SJF/priority exist to cut.
//
// Gates (non-zero exit on failure):
//   (1) Determinism: the whole sweep re-runs under NOCW_THREADS in
//       {1, 2, 8} plus a fixed-seed repeat; every reported number must be
//       bit-identical across all arms.
//   (2) Scheduling: at >= 1 overloaded point (load > 1.0), SJF or
//       priority must beat FIFO on the interactive tenant's p99.
//
// Outputs: the summary metrics (nocw.bench_summary.v1 keys for the
// dashboard serving panel + obs_diff gate), the aggregate table
// (results/ext_serving.csv), and a queue-depth time series for one
// overloaded point (results/serving_queue_depth.json).
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "accel/summary.hpp"
#include "eval/flow.hpp"
#include "eval/serving.hpp"
#include "nn/models.hpp"
#include "obs/log.hpp"
#include "obs/timeseries.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nocw;

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

std::string load_key(double load) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "l%03d",
                static_cast<int>(std::lround(load * 100.0)));
  return buf;
}

/// Exhaustive flattening of a sweep result, used both for the bit-identity
/// comparison across thread counts and (a subset) for the summary metrics.
std::map<std::string, double> flatten(const eval::ServingSweepResult& r) {
  std::map<std::string, double> out;
  out["capacity_rps"] = r.capacity_rps;
  for (std::size_t c = 0; c < r.profiles.size(); ++c) {
    const std::string base = "profile." + r.class_names[c];
    out[base + ".full_cycles"] =
        static_cast<double>(r.profiles[c].full_cycles.value());
    out[base + ".marginal_cycles"] =
        static_cast<double>(r.profiles[c].marginal_cycles.value());
  }
  for (const eval::ServingPoint& pt : r.points) {
    const std::string base = pt.scheduler + "." + load_key(pt.offered_load);
    const auto add_class = [&](const std::string& key,
                               const serve::ClassServeStats& s) {
      out[key + ".offered"] = static_cast<double>(s.offered);
      out[key + ".completed"] = static_cast<double>(s.completed);
      out[key + ".shed"] = static_cast<double>(s.shed);
      out[key + ".shed_rate"] = s.shed_rate;
      out[key + ".p50_cycles"] = finite_or_zero(s.latency.p50);
      out[key + ".p99_cycles"] = finite_or_zero(s.latency.p99);
      out[key + ".p999_cycles"] = finite_or_zero(s.latency.p999);
      out[key + ".mean_cycles"] = finite_or_zero(s.latency.mean);
    };
    add_class(base, pt.result.aggregate);
    for (const serve::ClassServeStats& s : pt.result.per_class) {
      add_class(base + "." + s.name, s);
    }
    out[base + ".goodput_rps"] = pt.result.goodput_rps;
    out[base + ".batches"] = static_cast<double>(pt.result.batches);
    out[base + ".mean_batch_size"] = pt.result.mean_batch_size;
    out[base + ".makespan_cycles"] =
        static_cast<double>(pt.result.makespan.value());
  }
  return out;
}

}  // namespace

int main(int, char** argv) {
  const std::string dir = bench::output_dir(argv[0]);
  obs::RunManifest man = obs::make_manifest("ext_serving", "LeNet-5");

  // --- workload classes -------------------------------------------------
  bench::TrainedLenet lenet = bench::trained_lenet(dir);
  eval::EvalConfig ecfg;
  ecfg.topk = 1;
  eval::DeltaEvaluator ev(lenet.model, lenet.test, ecfg);
  const eval::DeltaPoint d8 = ev.evaluate(8.0);
  const accel::ModelSummary lenet_summary = accel::summarize(lenet.model);
  nn::Model alexnet = nn::make_alexnet();
  const accel::ModelSummary alexnet_summary = accel::summarize(alexnet);

  std::vector<serve::RequestClass> classes(3);
  classes[0].name = "lenet_d0";
  classes[0].tenant = 0;
  classes[0].tenant_weight = 4.0;
  classes[0].mix_fraction = 0.45;
  classes[0].summary = lenet_summary;
  classes[1].name = "lenet_d8";
  classes[1].tenant = 0;
  classes[1].tenant_weight = 4.0;
  classes[1].mix_fraction = 0.35;
  classes[1].summary = lenet_summary;
  classes[1].plan[ev.selected_layer()] = d8.compression;
  classes[2].name = "alexnet_d0";
  classes[2].tenant = 1;
  classes[2].tenant_weight = 1.0;
  classes[2].mix_fraction = 0.20;
  classes[2].summary = alexnet_summary;

  eval::ServingSweepConfig cfg;
  cfg.requests_per_point =
      static_cast<int>(env_int("REPRO_SERVE_REQUESTS", 1200, 10));
  cfg.serve.accel.noc_window_flits = bench::noc_window();
  cfg.serve.queue.capacity = 64;
  cfg.serve.batch.max_batch = 4;
  cfg.serve.batch.max_wait = units::Cycles{200'000};

  // --- (1) determinism gate: threads x repeats --------------------------
  const std::vector<unsigned> thread_arms{1, 1, 2, 8};
  std::vector<std::map<std::string, double>> arms;
  for (const unsigned threads : thread_arms) {
    set_global_threads(threads);
    arms.push_back(flatten(eval::run_serving_sweep(classes, cfg)));
  }
  set_global_threads(1);
  bool deterministic = true;
  for (std::size_t a = 1; a < arms.size(); ++a) {
    if (arms[a] != arms[0]) deterministic = false;
  }

  // The gated result: re-run once more at 1 thread, keeping the full
  // structure (flatten drops none of it, so the arms above already proved
  // this run equals every other arm bit-for-bit).
  const eval::ServingSweepResult sweep = eval::run_serving_sweep(classes, cfg);

  // --- bursty arm: MMPP at nominal load through FIFO --------------------
  eval::ServingSweepConfig mcfg = cfg;
  mcfg.process = serve::ArrivalProcess::kMmpp;
  mcfg.offered_loads = {0.9};
  mcfg.schedulers = {"fifo"};
  const eval::ServingSweepResult mmpp = eval::run_serving_sweep(classes, mcfg);

  // --- queue-depth time series for one overloaded FIFO point ------------
  {
    obs::TimeSeriesSet ts;
    const serve::ServeSim sim(cfg.serve, classes);
    const double cap_rpc = eval::capacity_requests_per_cycle(
        sim.classes(), sim.profiles(), cfg.serve.batch.max_batch);
    serve::ArrivalConfig acfg;
    acfg.rate_per_mcycle = 1.5 * cap_rpc * 1e6;
    acfg.horizon_cycles = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(cfg.requests_per_point) / (1.5 * cap_rpc)));
    acfg.seed = cfg.arrival_seed;
    (void)sim.run(serve::generate_arrivals(sim.classes(), acfg), "fifo", &ts);
    std::FILE* f =
        std::fopen((dir + "/results/serving_queue_depth.json").c_str(), "w");
    if (f != nullptr) {
      const std::string json = ts.to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }

  // --- (2) scheduling gate + table + metrics ----------------------------
  Table t({"Sched", "Load", "Offered", "Done", "Shed %", "p50 cyc",
           "p99 cyc", "p99.9 cyc", "Goodput r/s", "Batch"});
  std::map<std::string, std::map<std::string, double>> t0_p99;  // load->sched
  for (const eval::ServingPoint& pt : sweep.points) {
    const serve::ClassServeStats& agg = pt.result.aggregate;
    t.add_row({pt.scheduler, fmt_fixed(pt.offered_load, 2),
               std::to_string(agg.offered), std::to_string(agg.completed),
               fmt_fixed(agg.shed_rate * 100.0, 1),
               fmt_fixed(finite_or_zero(agg.latency.p50), 0),
               fmt_fixed(finite_or_zero(agg.latency.p99), 0),
               fmt_fixed(finite_or_zero(agg.latency.p999), 0),
               fmt_fixed(pt.result.goodput_rps, 0),
               fmt_fixed(pt.result.mean_batch_size, 2)});
    if (pt.offered_load > 1.0) {
      t0_p99[load_key(pt.offered_load)][pt.scheduler] =
          finite_or_zero(pt.result.per_class[0].latency.p99);
    }
  }
  bench::emit("Serving sweep: offered load x scheduler (aggregate)", t, dir,
              "ext_serving");

  bool smart_beats_fifo = false;
  for (const auto& [load, by_sched] : t0_p99) {
    const auto fifo = by_sched.find("fifo");
    if (fifo == by_sched.end()) continue;
    for (const auto& [sched, p99] : by_sched) {
      if (sched != "fifo" && p99 < fifo->second) smart_beats_fifo = true;
    }
    (void)load;
  }

  const std::map<std::string, double> flat = flatten(sweep);
  man.metrics["capacity_rps"] = sweep.capacity_rps;
  man.metrics["deterministic"] = deterministic ? 1.0 : 0.0;
  man.metrics["sjf_or_priority_beats_fifo"] = smart_beats_fifo ? 1.0 : 0.0;
  man.metrics["lenet_d8_accuracy"] = d8.accuracy;
  for (const eval::ServingPoint& pt : sweep.points) {
    const std::string base = pt.scheduler + "." + load_key(pt.offered_load);
    for (const char* key :
         {".p50_cycles", ".p99_cycles", ".p999_cycles", ".shed_rate",
          ".goodput_rps"}) {
      man.metrics[base + key] = flat.at(base + key);
    }
    man.metrics[base + ".t0_p99_cycles"] =
        flat.at(base + ".lenet_d0.p99_cycles");
  }
  man.metrics["mmpp.l090.p99_cycles"] =
      finite_or_zero(mmpp.points.front().result.aggregate.latency.p99);
  man.metrics["mmpp.l090.shed_rate"] =
      mmpp.points.front().result.aggregate.shed_rate;
  ev.annotate_manifest(man);
  bench::write_summary(dir, man);

  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: serving sweep is not bit-identical across "
                 "NOCW_THREADS {1,2,8} / repeated runs\n");
    return 1;
  }
  if (!smart_beats_fifo) {
    std::fprintf(stderr,
                 "ERROR: neither SJF nor priority beat FIFO on tenant-0 "
                 "p99 at any overloaded point\n");
    return 1;
  }
  obs::log("[serving] capacity %.0f r/s, %zu grid points, deterministic, "
           "smart scheduling beats FIFO under overload\n",
           sweep.capacity_rps, sweep.points.size());
  return 0;
}
