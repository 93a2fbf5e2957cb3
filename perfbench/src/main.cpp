// perfbench: the repository benchmark's measuring program (see README.md).
//
//   perfbench --workload <zoo_fig10|noc_reference|serve_load> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir>
//
// Every workload runs the same three stages on its own inputs:
//   A  δ-sweep: DeltaEvaluator → evaluate_many → AcceleratorSim::simulate
//      for the baseline and each δ point (the Fig. 10 flow);
//   B  NoC estimate vs reference: the baseline and δ grid simulated with the
//      default 24,000-flit window, then the baseline and the largest δ
//      simulated in full;
//   C  serving grid: 5 loads x 3 schedulers through ServeSim::run, once
//      plain and once with an SLO monitor and request-trace sink attached.
// The workload chooses the models and request counts of each stage, so the
// stage it is named after dominates its run time. Model builds, summaries,
// compression plans, ServeSim profiling and arrival generation form the
// set-up, timed apart from the stages.
//
// Every call the end-to-end metrics time is metered (meter.hpp): its wall
// time is scaled to the reference host's speed by a calibration kernel timed
// around it (serial calls) or on every CPU while it runs (pool calls).
// Untraced runs set up three times and report the
// median. They repeat the main stage until --seconds have passed, run the
// two side stages in short slices between its units, and report for each
// timed quantity the sum over units of each unit's median repetition.
// Traced runs set up once, run each stage once, record a host-time span
// around every call into nn, core, eval, accel (one span per CNN layer) and
// serve, and report per-layer totals. Both write a digest of every
// simulated output, which run.py compares across runs of the same seed.
//
// The last line on stdout is one JSON object with the raw measurements.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "accel/summary.hpp"
#include "core/codec.hpp"
#include "eval/flow.hpp"
#include "eval/layer_selection.hpp"
#include "eval/probes.hpp"
#include "eval/serving.hpp"
#include "nn/metrics.hpp"
#include "nn/models.hpp"
#include "obs/slo.hpp"
#include "serve/reqtrace.hpp"
#include "serve/serve_sim.hpp"
#include "meter.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace nocw;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Probe inputs per model: fig10_tradeoff's default, so that seed 1
/// reproduces its accuracies.
constexpr int kProbes = 6;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--out") {
      o.out_dir = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (o.seed == 0) usage("--seed must be a positive integer");
  return o;
}

// --------------------------------------------------------------- workloads

struct Workload {
  std::vector<std::string> sweep_models;      ///< stage A
  std::vector<std::string> reference_models;  ///< stage B
  int serve_requests = 0;                     ///< stage C, per grid point
  int main_stage = 0;  ///< the stage the workload is named after (0..2)
};

Workload workload_for(const std::string& name) {
  const std::vector<std::string> lenet{"LeNet-5"};
  if (name == "zoo_fig10") return {nn::model_names(), lenet, 20'000, 0};
  if (name == "noc_reference") {
    // VGG-16 is left out: its full simulation aborts on the drain guard.
    return {lenet,
            {"LeNet-5", "AlexNet", "MobileNet", "ResNet50", "Inception-v3"},
            20'000,
            1};
  }
  if (name == "serve_load") return {lenet, lenet, 100'000, 2};
  usage(("unknown workload " + name).c_str());
}

/// fig10_tradeoff's δ grids.
const std::vector<double>& delta_grid(const std::string& model) {
  static const std::vector<double> kWide{0, 5, 10, 15, 20};
  static const std::vector<double> kNarrow{0, 2, 4, 6, 8};
  if (model == "VGG-16" || model == "MobileNet" || model == "ResNet50") {
    return kNarrow;
  }
  return kWide;
}

const std::vector<double> kLoads{0.3, 0.6, 0.9, 1.2, 1.5};
const std::vector<std::string> kSchedulers{"fifo", "sjf", "priority"};

// ------------------------------------------------------------- bookkeeping

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Reference-speed host time of one timed quantity split by unit (a model
/// or a grid point): the sum over units of each unit's median repetition.
class UnitTimes {
 public:
  void add(std::size_t unit, double ms) {
    if (unit >= reps_.size()) reps_.resize(unit + 1);
    reps_[unit].push_back(ms);
  }
  [[nodiscard]] double seconds() const {
    double ms = reps_.empty() ? std::numeric_limits<double>::quiet_NaN() : 0;
    for (const std::vector<double>& r : reps_) ms += median(r);
    return ms / 1000.0;
  }

 private:
  std::vector<std::vector<double>> reps_;
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Attempted and failed operations; each failure is reported on stderr.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Counters the traced run gathers around simulate_layer.
struct NocCounts {
  double simulated_flits = 0;  ///< flits cycle-simulated (phase-cache misses)
  double window_flits = 0;     ///< the part of those inside windowed runs
  double miss_ms = 0;          ///< host ms of layers that missed the cache
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct Run {
  Options opt;
  Spans spans;
  Meter meter;
  Ledger ledger;
  NocCounts noc;
  // The end-to-end timings (reference-speed ms), by unit.
  UnitTimes sweep;      ///< stage A, per model
  UnitTimes estimate;   ///< stage B windowed, per model
  UnitTimes reference;  ///< stage B full, per model
  UnitTimes plain;      ///< stage C hooks off, per grid point
  UnitTimes hooked;     ///< stage C hooks on, per grid point
  Run(const Options& o, unsigned lanes)
      : opt(o), spans(o.trace), meter(lanes) {}
};

// ------------------------------------------------------------------ set-up

struct ModelInputs {
  nn::Model model;
  accel::ModelSummary summary;
  /// Stage B plans, one per δ of the model's grid (core::compress of
  /// Model::selected_layer).
  std::vector<accel::CompressionPlan> plans;
};

struct ServeInputs {
  std::unique_ptr<serve::ServeSim> sim;
  std::vector<std::vector<serve::Arrival>> arrivals;  ///< one per load
  obs::SloPolicy slo;
  serve::ReqTraceConfig traces;
};

struct Inputs {
  std::map<std::string, std::unique_ptr<ModelInputs>> models;
  ServeInputs serve;
};

accel::LayerCompression compress_selected(Run& run, const nn::Model& m,
                                          double delta) {
  const int node = m.graph.find(m.selected_layer);
  if (node < 0) throw std::runtime_error("no layer " + m.selected_layer);
  core::CodecConfig codec;
  codec.delta_percent = delta;
  auto span = run.spans.open("core.compress", m.name);
  const core::CompressedLayer c =
      core::compress(m.graph.layer(node).kernel(), codec);
  return accel::LayerCompression{c.compressed_bits(), c.original_count};
}

std::uint64_t arrival_seed(std::uint64_t seed) { return 0x5E21 + seed - 1; }
std::uint64_t probe_seed(std::uint64_t seed) { return 4242 + seed - 1; }

/// Builds every input of the timed stages. Each step is metered on its own;
/// their sum is added to *ms.
std::unique_ptr<Inputs> set_up(Run& run, const Workload& w, double* ms) {
  const auto metered = [&](const auto& step) {
    *ms += run.meter.time(Shape::kSerial, step);
  };
  auto in = std::make_unique<Inputs>();
  std::vector<std::string> names = w.sweep_models;
  names.insert(names.end(), w.reference_models.begin(),
               w.reference_models.end());
  names.push_back("LeNet-5");  // serving classes
  names.push_back("AlexNet");
  for (const std::string& name : nn::model_names()) {
    if (std::find(names.begin(), names.end(), name) == names.end()) continue;
    auto mi = std::make_unique<ModelInputs>();
    metered([&] {
      auto span = run.spans.open("nn.build", name);
      mi->model = nn::make_model(name, run.opt.seed);
    });
    metered([&] {
      auto span = run.spans.open("accel.summarize", name);
      mi->summary = accel::summarize(mi->model);
    });
    in->models[name] = std::move(mi);
  }
  for (const std::string& name : w.reference_models) {
    ModelInputs& mi = *in->models.at(name);
    for (const double d : delta_grid(name)) {
      accel::CompressionPlan plan;
      metered([&] {
        plan[mi.model.selected_layer] = compress_selected(run, mi.model, d);
      });
      mi.plans.push_back(std::move(plan));
    }
  }

  // Serving classes: ext_serving's mix on the seed-built models.
  const ModelInputs& lenet = *in->models.at("LeNet-5");
  const ModelInputs& alexnet = *in->models.at("AlexNet");
  std::vector<serve::RequestClass> classes(3);
  classes[0].name = "lenet_d0";
  classes[0].tenant = 0;
  classes[0].tenant_weight = 4.0;
  classes[0].mix_fraction = 0.45;
  classes[0].summary = lenet.summary;
  classes[1].name = "lenet_d8";
  classes[1].tenant = 0;
  classes[1].tenant_weight = 4.0;
  classes[1].mix_fraction = 0.35;
  classes[1].summary = lenet.summary;
  metered([&] {
    classes[1].plan[lenet.model.selected_layer] =
        compress_selected(run, lenet.model, 8.0);
  });
  classes[2].name = "alexnet_d0";
  classes[2].tenant = 1;
  classes[2].tenant_weight = 1.0;
  classes[2].mix_fraction = 0.20;
  classes[2].summary = alexnet.summary;

  serve::ServeConfig scfg;
  scfg.queue.capacity = 64;
  scfg.batch.max_batch = 4;
  scfg.batch.max_wait = units::Cycles{200'000};
  metered([&] {
    auto span = run.spans.open("serve.profile");
    in->serve.sim = std::make_unique<serve::ServeSim>(scfg, classes);
  });
  const serve::ServeSim& sim = *in->serve.sim;
  const double cap_rpc = eval::capacity_requests_per_cycle(
      sim.classes(), sim.profiles(), scfg.batch.max_batch);
  for (const double load : kLoads) {
    // Open loop in simulated cycles, as eval::run_serving_sweep builds it.
    const double rate_per_cycle = load * cap_rpc;
    serve::ArrivalConfig acfg;
    acfg.rate_per_mcycle = rate_per_cycle * 1e6;
    acfg.horizon_cycles = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(w.serve_requests) / rate_per_cycle));
    acfg.seed = arrival_seed(run.opt.seed);
    metered([&] {
      auto span = run.spans.open("serve.arrivals");
      in->serve.arrivals.push_back(
          serve::generate_arrivals(sim.classes(), acfg));
    });
  }
  // ext_reqtrace's SLO policy: ~100 capacity-requests per window.
  std::uint64_t max_full = 0;
  for (const serve::ServiceProfile& p : sim.profiles()) {
    max_full = std::max(max_full, p.full_cycles.value());
  }
  in->serve.slo.window_cycles =
      static_cast<std::uint64_t>(std::llround(100.0 / cap_rpc));
  in->serve.slo.p99_budget_cycles = 4.0 * static_cast<double>(max_full);
  in->serve.slo.p999_budget_cycles = 6.0 * static_cast<double>(max_full);
  in->serve.slo.min_goodput_fraction = 0.99;
  in->serve.slo.error_budget = 0.01;
  in->serve.traces.tail_keep = 32;
  in->serve.traces.exemplar_capacity = 512;
  return in;
}

// ---------------------------------------------------------------- simulate

/// AcceleratorSim::simulate, or the same sum built from one simulate_layer
/// call per layer, which yields identical results: the digest check compares
/// the two. The per-layer path runs in the traced run (a span per layer) and
/// whenever `metered_ms` is given: each layer call is then metered on its
/// own and the sum added to *metered_ms, so that a simulation lasting
/// seconds is scaled by the host's speed during each layer rather than at
/// its two ends.
accel::InferenceResult simulate(Run& run, const accel::AcceleratorSim& sim,
                                const accel::ModelSummary& summary,
                                const accel::CompressionPlan* plan,
                                bool windowed, double* metered_ms = nullptr) {
  ++run.ledger.attempted;
  auto span = run.spans.open("accel.simulate", summary.model_name);
  if (!run.spans.on() && metered_ms == nullptr) {
    return sim.simulate(summary, plan);
  }

  accel::InferenceResult r;
  r.model_name = summary.model_name;
  const auto window = static_cast<double>(sim.config().noc_window_flits);
  for (std::size_t i = 0; i < summary.layers.size(); ++i) {
    const accel::LayerSummary& layer = summary.layers[i];
    const accel::LayerCompression* lc = nullptr;
    if (plan != nullptr) {
      const auto it = plan->find(layer.name);
      if (it != plan->end()) lc = &it->second;
    }
    const std::uint64_t hits0 = sim.noc_phase_cache_hits();
    const std::uint64_t misses0 = sim.noc_phase_cache_misses();
    accel::LayerResult lr;
    double ms = 0;
    const auto call = [&] {
      auto layer_span = run.spans.open(
          "accel.layer", summary.model_name + "/" + layer.name);
      lr = sim.simulate_layer(layer, lc, static_cast<std::uint32_t>(i));
      ms = layer_span.close();
    };
    if (metered_ms != nullptr) {
      *metered_ms += run.meter.time(Shape::kSerial, call);
    } else {
      call();
    }
    run.noc.hits += sim.noc_phase_cache_hits() - hits0;
    if (sim.noc_phase_cache_misses() > misses0) {
      ++run.noc.misses;
      const double flits = std::min(lr.total_flits.dvalue(), window);
      run.noc.simulated_flits += flits;
      if (windowed) run.noc.window_flits += flits;
      run.noc.miss_ms += ms;
    }
    if (!layer.traffic_bearing) continue;
    r.latency += lr.latency;
    r.energy += lr.energy;
    r.noc_obs.merge(lr.noc_obs);
    r.layers.push_back(std::move(lr));
  }
  return r;
}

std::string result_line(const std::string& key,
                        const accel::InferenceResult& r) {
  return fmt("%s.latency_cycles %.17g\n%s.energy_j %.17g\n", key.c_str(),
             r.latency.total().value(), key.c_str(), r.energy.total().value());
}

// ---------------------------------------------------------- stage A: sweep

struct SweepModelOut {
  std::vector<eval::DeltaPoint> points;
  double baseline_accuracy = 0;
};

/// Called between the units of a stage (models, grid points); runs the
/// workload's other stages there, outside the caller's timing.
using Between = std::function<void()>;

/// One δ-sweep over `names`. Returns the host ms from each model's
/// DeltaEvaluator to its last simulate, summed (reference speed; each call
/// is metered on its own); appends the outputs to `digest`.
double stage_sweep(Run& run, Inputs& in, const std::vector<std::string>& names,
                   std::string& digest,
                   std::map<std::string, SweepModelOut>& outs,
                   const Between& between) {
  double ms = 0;
  for (std::size_t unit = 0; unit < names.size(); ++unit) {
    const std::string& name = names[unit];
    ModelInputs& mi = *in.models.at(name);
    const std::string key = lower(name);
    double unit_ms = 0;
    try {
      eval::EvalConfig cfg;
      cfg.topk = mi.model.top5 ? 5 : 1;
      cfg.probes = kProbes;
      cfg.probe_seed = probe_seed(run.opt.seed);
      std::unique_ptr<eval::DeltaEvaluator> ev;
      unit_ms += run.meter.time(Shape::kParallel, [&] {
        auto span = run.spans.open("eval.prefix", name);
        ev = std::make_unique<eval::DeltaEvaluator>(mi.model, cfg);
      });
      SweepModelOut& out = outs[name];
      out.baseline_accuracy = ev->baseline_accuracy();
      unit_ms += run.meter.time(Shape::kParallel, [&] {
        auto span = run.spans.open("eval.sweep", name);
        out.points = ev->evaluate_many(delta_grid(name));
      });
      run.ledger.attempted += out.points.size();

      const accel::AcceleratorSim sim{accel::AccelConfig{}};
      accel::InferenceResult base;
      unit_ms += run.meter.time(Shape::kSerial, [&] {
        base = simulate(run, sim, mi.summary, nullptr, true);
      });
      digest += result_line(key + ".base", base);
      digest += fmt("%s.base.accuracy %.17g\n", key.c_str(),
                    out.baseline_accuracy);
      for (const eval::DeltaPoint& p : out.points) {
        accel::CompressionPlan plan;
        plan[ev->selected_layer()] = p.compression;
        accel::InferenceResult r;
        unit_ms += run.meter.time(Shape::kSerial, [&] {
          r = simulate(run, sim, mi.summary, &plan, true);
        });
        const std::string d = fmt("%s.d%.0f", key.c_str(), p.delta_percent);
        digest += result_line(d, r);
        digest += fmt("%s.accuracy %.17g\n%s.segments %zu\n", d.c_str(),
                      p.accuracy, d.c_str(), p.report.segment_count);
      }
    } catch (const std::exception& e) {
      run.ledger.fail("sweep " + name + ": " + e.what());
    }
    run.sweep.add(unit, unit_ms);
    ms += unit_ms;
    between();
  }
  return ms;
}

/// The work attribute_sweep replayed, as bases for its throughputs.
struct Replayed {
  double macs = 0;         ///< total_macs x probes, summed over models
  double weights = 0;      ///< weights compressed
  double compress_ms = 0;  ///< host ms of those compressions
};

/// Traced run only: the evaluator's prefix and per-point work, replayed one
/// public call at a time (forward_capturing, compress, decompress,
/// forward_tail) so each gets its own span. The replayed accuracies must
/// equal the evaluator's.
Replayed attribute_sweep(Run& run, Inputs& in,
                         const std::map<std::string, SweepModelOut>& outs) {
  Replayed done;
  for (const auto& [name, out] : outs) {
    nn::Model& m = in.models.at(name)->model;
    const int node = eval::select_layer(m);
    const nn::Tensor probes =
        eval::make_probes(kProbes, m.input_size, m.input_channels,
                          probe_seed(run.opt.seed));
    std::pair<nn::Tensor, nn::Tensor> fwd;
    {
      auto span = run.spans.open("nn.forward", name);
      fwd = m.graph.forward_capturing(probes, node);
    }
    done.macs += static_cast<double>(in.models.at(name)->summary.total_macs) *
                 kProbes;
    auto kernel = m.graph.layer(node).kernel();
    const std::vector<float> original(kernel.begin(), kernel.end());
    const int topk = m.top5 ? 5 : 1;
    for (const eval::DeltaPoint& p : out.points) {
      core::CodecConfig codec;
      codec.delta_percent = p.delta_percent;
      core::CompressedLayer c;
      {
        auto span = run.spans.open("core.compress", name);
        c = core::compress(original, codec);
        done.compress_ms += span.close();
      }
      done.weights += static_cast<double>(original.size());
      {
        auto span = run.spans.open("core.decompress", name);
        core::decompress(c, kernel);
      }
      nn::Tensor outputs;
      {
        auto span = run.spans.open("nn.tail", name);
        outputs = m.graph.forward_tail(fwd.second, node);
      }
      std::copy(original.begin(), original.end(), kernel.begin());
      const double acc =
          nn::mean_topk_agreement(fwd.first, outputs, topk);
      run.ledger.check(acc == p.accuracy,
                       fmt("%s d%.0f replayed accuracy %.17g != %.17g",
                           name.c_str(), p.delta_percent, acc, p.accuracy));
    }
  }
  return done;
}

// ------------------------------------------------------ stage B: reference

struct ReferenceOut {
  double estimate_ms = 0;
  double reference_ms = 0;
  double max_error_pct = 0;
  double mean_error_pct = 0;
};

ReferenceOut stage_reference(Run& run, Inputs& in,
                             const std::vector<std::string>& names,
                             std::string& digest, const Between& between) {
  ReferenceOut out;
  int compared = 0;
  for (std::size_t unit = 0; unit < names.size(); ++unit) {
    const std::string& name = names[unit];
    const ModelInputs& mi = *in.models.at(name);
    const std::string key = lower(name);
    try {
      // One simulate call, metered layer by layer; the traced run meters
      // the whole call instead, so that its span covers the call alone.
      const auto timed = [&](const char* span_name,
                             const accel::AcceleratorSim& sim,
                             const accel::CompressionPlan* plan,
                             bool windowed, accel::InferenceResult& r) {
        if (!run.spans.on()) {
          double ms = 0;
          r = simulate(run, sim, mi.summary, plan, windowed, &ms);
          return ms;
        }
        return run.meter.time(Shape::kSerial, [&] {
          auto span = run.spans.open(span_name, name);
          r = simulate(run, sim, mi.summary, plan, windowed);
        });
      };
      // Windowed: fig10's simulate path (default window, phase cache on).
      accel::InferenceResult win_base;
      accel::InferenceResult win_max;
      {
        const accel::AcceleratorSim sim{accel::AccelConfig{}};
        double ms = timed("noc.estimate", sim, nullptr, true, win_base);
        for (const accel::CompressionPlan& plan : mi.plans) {
          ms += timed("noc.estimate", sim, &plan, true, win_max);
        }
        run.estimate.add(unit, ms);
        out.estimate_ms += ms;
      }
      // Full: one window covering every layer, drain guard lifted.
      accel::InferenceResult full_base;
      accel::InferenceResult full_max;
      {
        accel::AccelConfig cfg;
        cfg.noc_window_flits = std::numeric_limits<std::uint64_t>::max();
        cfg.max_phase_cycles = std::uint64_t{1} << 40;
        const accel::AcceleratorSim sim{cfg};
        double ms = timed("noc.reference", sim, nullptr, false, full_base);
        ms += timed("noc.reference", sim, &mi.plans.back(), false, full_max);
        run.reference.add(unit, ms);
        out.reference_ms += ms;
      }
      const std::string dmax =
          fmt("%s.d%.0f", key.c_str(), delta_grid(name).back());
      digest += result_line(key + ".window.base", win_base);
      digest += result_line(dmax + ".window", win_max);
      digest += result_line(key + ".full.base", full_base);
      digest += result_line(dmax + ".full", full_max);
      const auto error_pct = [](const accel::InferenceResult& win,
                                const accel::InferenceResult& full) {
        const double full_comm = full.latency.comm_cycles.value();
        return 100.0 * std::fabs(win.latency.comm_cycles.value() - full_comm) /
               full_comm;
      };
      for (const double err : {error_pct(win_base, full_base),
                               error_pct(win_max, full_max)}) {
        out.max_error_pct = std::max(out.max_error_pct, err);
        out.mean_error_pct += err;
        ++compared;
      }
    } catch (const std::exception& e) {
      run.ledger.fail("reference " + name + ": " + e.what());
    }
    between();
  }
  if (compared > 0) out.mean_error_pct /= compared;
  return out;
}

// -------------------------------------------------------- stage C: serving

struct ServeOut {
  double plain_ms = 0;
  double hooked_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t shed = 0;
};

bool same(const serve::ClassServeStats& a, const serve::ClassServeStats& b) {
  return a.offered == b.offered && a.admitted == b.admitted &&
         a.shed == b.shed && a.completed == b.completed &&
         a.shed_rate == b.shed_rate && a.latency.count == b.latency.count &&
         a.latency.mean == b.latency.mean && a.latency.p50 == b.latency.p50 &&
         a.latency.p90 == b.latency.p90 && a.latency.p99 == b.latency.p99 &&
         a.latency.p999 == b.latency.p999 && a.latency.max == b.latency.max;
}

bool same(const serve::ServeResult& a, const serve::ServeResult& b) {
  if (a.per_class.size() != b.per_class.size()) return false;
  for (std::size_t i = 0; i < a.per_class.size(); ++i) {
    if (!same(a.per_class[i], b.per_class[i])) return false;
  }
  return same(a.aggregate, b.aggregate) && a.batches == b.batches &&
         a.mean_batch_size == b.mean_batch_size && a.makespan == b.makespan &&
         a.goodput_rps == b.goodput_rps;
}

ServeOut stage_serve(Run& run, Inputs& in, std::string& digest,
                     const Between& between) {
  ServeOut out;
  const ServeInputs& si = in.serve;
  const serve::ServeSim& sim = *si.sim;
  std::vector<serve::ServeResult> plain;
  std::vector<serve::ServeResult> hooked;
  try {
    for (std::size_t l = 0; l < kLoads.size(); ++l) {
      for (const std::string& sched : kSchedulers) {
        ++run.ledger.attempted;
        const double ms = run.meter.time(Shape::kSerial, [&] {
          auto span = run.spans.open("serve.run", sched);
          plain.push_back(sim.run(si.arrivals[l], sched));
        });
        run.plain.add(plain.size() - 1, ms);
        out.plain_ms += ms;
        between();
      }
    }
    // The same grid with hooks, built as eval::run_observed_serving_sweep
    // builds it: one monitor and sink per point, trace ids per load.
    std::vector<obs::SloMonitor> monitors;
    std::vector<serve::RequestTraceSink> sinks;
    monitors.reserve(kLoads.size() * kSchedulers.size());
    sinks.reserve(kLoads.size() * kSchedulers.size());
    for (std::size_t l = 0; l < kLoads.size(); ++l) {
      for (const std::string& sched : kSchedulers) {
        ++run.ledger.attempted;
        const double ms = run.meter.time(Shape::kSerial, [&] {
          auto span = run.spans.open("serve.run_hooked", sched);
          monitors.emplace_back(sim.classes().size(), si.slo);
          sinks.emplace_back(sim.classes().size(), si.traces);
          serve::RunHooks hooks;
          hooks.slo = &monitors.back();
          hooks.traces = &sinks.back();
          hooks.trace_seed = 0x7E11 ^ (0x9e3779b97f4a7c15ull *
                                       static_cast<std::uint64_t>(l + 1));
          hooked.push_back(
              sim.run(si.arrivals[l], *serve::make_scheduler(sched), hooks));
        });
        run.hooked.add(hooked.size() - 1, ms);
        out.hooked_ms += ms;
        between();
      }
    }
  } catch (const std::exception& e) {
    run.ledger.fail(std::string("serving grid: ") + e.what());
    return out;
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const serve::ServeResult& r = plain[i];
    const std::string key =
        fmt("serve.%s.l%03.0f", r.scheduler.c_str(),
            100.0 * kLoads[i / kSchedulers.size()]);
    try {
      r.check_invariants();
      hooked[i].check_invariants();
    } catch (const std::exception& e) {
      run.ledger.fail(key + " invariants: " + e.what());
    }
    run.ledger.check(same(r, hooked[i]), key + " differs with hooks on");
    out.requests += r.aggregate.offered;
    out.batches += r.batches;
    out.shed += r.aggregate.shed;
    digest += fmt("%s.p50_cycles %.17g\n%s.p99_cycles %.17g\n%s.shed %llu\n",
                  key.c_str(), r.aggregate.latency.p50, key.c_str(),
                  r.aggregate.latency.p99, key.c_str(),
                  static_cast<unsigned long long>(r.aggregate.shed));
  }
  return out;
}

// -------------------------------------------------------------------- main

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void json_metrics(std::string& js, const std::map<std::string, double>& m) {
  js += "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    js += first ? "\"" : ",\"";
    js += k + "\":" + (std::isfinite(v) ? fmt("%.17g", v) : "null");
    first = false;
  }
  js += "}";
}

/// One stage of the timed region. Every repetition after the first must
/// reproduce the first one's outputs exactly.
struct Stage {
  const char* name;
  /// Runs one repetition, writing its outputs; returns its host ms.
  std::function<double(std::string&, const Between&)> rep;
  std::string outputs;  ///< the first repetition's
  double spent_ms = 0;
  int reps = 0;

  void run_once(Run& run, const Between& between) {
    std::string out;
    spent_ms += rep(out, between);
    if (reps++ == 0) {
      outputs = std::move(out);
    } else if (out != outputs) {
      run.ledger.fail(fmt("%s repetition %d changed its outputs", name,
                          reps - 1));
    }
  }
};

int run_main(const Options& opt) {
  const Workload w = workload_for(opt.workload);
  const unsigned threads = global_pool().size();
  Run run(opt, threads);
  constexpr double kMinStageMs = 500.0;    // least host time per stage
  constexpr double kSideEveryMs = 1000.0;  // side-stage slice spacing
  constexpr double kSideSliceMs = 100.0;   // side-stage slice length

  // --- set-up, repeated so its median is steady -------------------------
  const Clock::time_point run_start = Clock::now();
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  const int setup_reps = opt.trace ? 1 : 3;
  for (int rep = 0; rep < setup_reps; ++rep) {
    in.reset();  // never hold two copies of the model zoo
    double ms = 0;
    in = set_up(run, w, &ms);
    setup_s.push_back(ms / 1000.0);
  }

  const Clock::time_point stages_start = Clock::now();

  // --- timed stages -------------------------------------------------------
  ReferenceOut ref0;
  ServeOut serve0;
  std::map<std::string, SweepModelOut> sweep_outs;
  Stage stages[3] = {
      {"sweep",
       [&](std::string& d, const Between& b) {
         return stage_sweep(run, *in, w.sweep_models, d, sweep_outs, b);
       }},
      {"reference",
       [&](std::string& d, const Between& b) {
         const ReferenceOut r =
             stage_reference(run, *in, w.reference_models, d, b);
         if (stages[1].reps == 0) ref0 = r;
         return r.estimate_ms + r.reference_ms;
       }},
      {"serve",
       [&](std::string& d, const Between& b) {
         const ServeOut s = stage_serve(run, *in, d, b);
         if (stages[2].reps == 0) serve0 = s;
         return s.plain_ms + s.hooked_ms;
       }},
  };
  const Between none = [] {};
  Stage& main_stage = stages[w.main_stage];
  if (opt.trace) {
    for (Stage& s : stages) s.run_once(run, none);
  } else {
    // The main stage repeats until --seconds have passed (at least once).
    // The two short side stages run a slice about once a second between its
    // units and are topped up at the end, so their repetitions come from the
    // whole run, not from one moment of the host's load.
    Clock::time_point last_side{};
    const Between side = [&] {
      if (ms_between(last_side, Clock::now()) < kSideEveryMs) return;
      for (Stage& s : stages) {
        if (&s == &main_stage) continue;
        const double until = s.spent_ms + kSideSliceMs;
        do {
          s.run_once(run, none);
        } while (s.spent_ms < until);
      }
      last_side = Clock::now();
    };
    const Clock::time_point start = Clock::now();
    side();
    const double budget_ms = opt.seconds * 1000.0;
    do {
      main_stage.run_once(run, side);
    } while (ms_between(start, Clock::now()) < budget_ms);
    for (Stage& s : stages) {
      while (s.spent_ms < kMinStageMs) s.run_once(run, none);
    }
  }
  const int passes = main_stage.reps;
  std::fprintf(stderr, "perfbench: wall set-up %.1f s, stages %.1f s\n",
               ms_between(run_start, stages_start) / 1000.0,
               ms_between(stages_start, Clock::now()) / 1000.0);
  const std::string digest =
      stages[0].outputs + stages[1].outputs + stages[2].outputs;

  // --- checks on the outputs ----------------------------------------------
  for (const auto& [name, out] : sweep_outs) {
    // Agreement mode compares the uncompressed model with itself.
    run.ledger.check(out.baseline_accuracy == 1.0,
                     name + " baseline agreement is not 1");
    run.ledger.check(out.points.size() == delta_grid(name).size(),
                     name + " is missing δ points");
  }
  run.ledger.check(serve0.shed > 0, "no grid point overloads the queue");

  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setup_s);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["sweep_s"] = run.sweep.seconds();
  e2e["estimate_s"] = run.estimate.seconds();
  e2e["reference_s"] = run.reference.seconds();
  e2e["comm_error_pct"] = ref0.max_error_pct;
  const auto requests = static_cast<double>(serve0.requests);
  e2e["requests_per_s"] = requests / run.plain.seconds();
  e2e["observed_requests_per_s"] = requests / run.hooked.seconds();

  std::map<std::string, double> layers;
  if (opt.trace) {
    const Replayed replayed = attribute_sweep(run, *in, sweep_outs);
    const Spans& sp = run.spans;
    double weight_mb = 0;
    for (const auto& [name, mi] : in->models) {
      weight_mb += static_cast<double>(mi->model.graph.total_params()) * 4e-6;
    }
    double segments = 0;
    double points = 0;
    for (const auto& [name, out] : sweep_outs) {
      for (const eval::DeltaPoint& p : out.points) {
        segments += static_cast<double>(p.report.segment_count);
        points += 1;
      }
    }
    layers["nn.build_ms"] = sp.total_ms("nn.build");
    layers["nn.weight_mb"] = weight_mb;
    layers["nn.forward_ms"] = sp.total_ms("nn.forward");
    layers["nn.forward_gmacs_per_s"] =
        replayed.macs / (sp.total_ms("nn.forward") / 1000.0) / 1e9;
    layers["nn.tail_ms"] = sp.total_ms("nn.tail");
    layers["core.compress_ms"] = sp.total_ms("core.compress");
    layers["core.compress_mweights_per_s"] =
        replayed.weights / replayed.compress_ms / 1000.0;
    layers["core.decompress_ms"] = sp.total_ms("core.decompress");
    layers["core.segments"] = segments;
    layers["eval.prefix_ms"] = sp.total_ms("eval.prefix");
    layers["eval.sweep_ms"] = sp.total_ms("eval.sweep");
    layers["eval.points"] = points;
    layers["accel.summarize_ms"] = sp.total_ms("accel.summarize");
    layers["accel.simulate_ms"] = sp.total_ms("accel.simulate");
    layers["accel.phase_cache_hits"] = static_cast<double>(run.noc.hits);
    layers["accel.phase_cache_misses"] = static_cast<double>(run.noc.misses);
    layers["accel.phase_cache_hit_ratio"] =
        static_cast<double>(run.noc.hits) /
        static_cast<double>(run.noc.hits + run.noc.misses);
    layers["noc.reference_ms"] = sp.total_ms("noc.reference");
    layers["noc.comm_error_pct"] = ref0.mean_error_pct;
    layers["noc.flits"] = run.noc.simulated_flits;
    layers["noc.estimate_flits"] = run.noc.window_flits;
    layers["noc.mflits_per_s"] =
        run.noc.simulated_flits / run.noc.miss_ms / 1000.0;
    layers["serve.profile_ms"] = sp.total_ms("serve.profile");
    layers["serve.arrivals_ms"] = sp.total_ms("serve.arrivals");
    for (const std::string& sched : kSchedulers) {
      layers["serve.run_ms." + sched] = sp.total_ms("serve.run", sched);
    }
    layers["serve.hooks_ms"] =
        sp.total_ms("serve.run_hooked") - sp.total_ms("serve.run");
    layers["serve.requests"] = static_cast<double>(serve0.requests);
    layers["serve.batches"] = static_cast<double>(serve0.batches);
    layers["serve.shed_ratio"] = static_cast<double>(serve0.shed) /
                                 static_cast<double>(serve0.requests);

    const std::string base = fmt("%s/%s-s%llu", opt.out_dir.c_str(),
                                 opt.workload.c_str(),
                                 static_cast<unsigned long long>(opt.seed));
    if (!sp.write_chrome_trace(base + ".trace.json") ||
        !sp.write_totals(base + ".spans.tsv")) {
      run.ledger.fail("cannot write the span files under " + opt.out_dir);
    }
  }

  const std::string digest_path =
      fmt("%s/%s-s%llu-trace%d-threads%u.digest", opt.out_dir.c_str(),
          opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
          opt.trace ? 1 : 0, threads);
  if (std::FILE* f = std::fopen(digest_path.c_str(), "w")) {
    std::fwrite(digest.data(), 1, digest.size(), f);
    std::fclose(f);
  } else {
    run.ledger.fail("cannot write " + digest_path);
  }

  std::string js = fmt(
      "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%u,\"trace\":%d,"
      "\"passes\":%d,\"setup_reps\":%d,\"attempted\":%llu,\"failed\":%llu,"
      "\"digest\":\"%016llx\",\"digest_lines\":%lld,\"e2e\":",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), threads,
      opt.trace ? 1 : 0, passes, setup_reps,
      static_cast<unsigned long long>(run.ledger.attempted),
      static_cast<unsigned long long>(run.ledger.failed),
      static_cast<unsigned long long>(fnv1a(digest)),
      static_cast<long long>(std::count(digest.begin(), digest.end(), '\n')));
  json_metrics(js, e2e);
  js += ",\"layers\":";
  json_metrics(js, layers);
  js += "}";
  std::printf("%s\n", js.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
