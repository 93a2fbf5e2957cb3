#include "eval/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "eval/probes.hpp"
#include "nn/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {

namespace {

struct LayerJob {
  int node = -1;
  double amp = 0.0;
};

}  // namespace

std::vector<LayerSensitivity> sensitivity_analysis(
    const nn::Model& model, const nn::Dataset* test,
    const SensitivityConfig& cfg) {
  const nn::Tensor inputs =
      test ? test->images
           : make_probes(cfg.probes, model.input_size, model.input_channels,
                         cfg.seed);
  const nn::Tensor baseline = model.graph.forward(inputs);
  const double baseline_acc =
      test ? nn::topk_accuracy(baseline, test->labels, cfg.topk) : 1.0;

  const auto param_nodes = model.graph.parameterized_nodes();
  double geo_mean_size = 1.0;
  if (cfg.equalize_energy) {
    double log_sum = 0.0;
    for (int idx : param_nodes) {
      log_sum += std::log(static_cast<double>(
          std::max<std::size_t>(1, model.graph.layer(idx).kernel().size())));
    }
    geo_mean_size = std::exp(log_sum / static_cast<double>(param_nodes.size()));
  }

  std::vector<LayerJob> jobs;
  jobs.reserve(param_nodes.size());
  for (int idx : param_nodes) {
    const auto kernel = model.graph.layer(idx).kernel();
    LayerJob job;
    job.node = idx;
    const double range = value_range(kernel);
    job.amp = cfg.noise_fraction * (range > 0 ? range : 1.0);
    if (cfg.equalize_energy && !kernel.empty()) {
      job.amp *=
          std::sqrt(geo_mean_size / static_cast<double>(kernel.size()));
    }
    jobs.push_back(std::move(job));
  }

  // One task per (layer, trial) pair. Each task draws its noise from an RNG
  // seeded by (cfg.seed, task index), so the stream a trial sees is fixed no
  // matter how tasks land on threads; per-task accuracies are reduced in
  // task order below, keeping the floating-point sum order fixed too.
  const std::size_t trials = static_cast<std::size_t>(cfg.trials);
  const std::size_t tasks = jobs.size() * trials;
  std::vector<double> task_acc(tasks, 0.0);

  // Every lane reads the one model: a task perturbs a copy of the layer's
  // kernel and replays with it as an override.
  global_pool().parallel_for(
      0, tasks, /*grain=*/1,
      [&](std::size_t t0, std::size_t t1, unsigned /*lane*/) {
        for (std::size_t t = t0; t < t1; ++t) {
          const LayerJob& job = jobs[t / trials];
          const auto original = model.graph.layer(job.node).kernel();
          std::vector<float> noisy(original.size());
          Xoshiro256pp rng(task_seed(cfg.seed ^ 0xABCDEFULL, t));
          for (std::size_t i = 0; i < noisy.size(); ++i) {
            noisy[i] = original[i] +
                       static_cast<float>(rng.uniform(-job.amp, job.amp));
          }
          const nn::Tensor outputs =
              model.graph.forward(inputs, {job.node, noisy});
          task_acc[t] =
              test ? nn::topk_accuracy(outputs, test->labels, cfg.topk)
                   : nn::mean_topk_agreement(baseline, outputs, cfg.topk);
        }
      });

  std::vector<LayerSensitivity> out;
  out.reserve(jobs.size());
  for (std::size_t li = 0; li < jobs.size(); ++li) {
    double acc_sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      acc_sum += task_acc[li * trials + t];
    }
    LayerSensitivity s;
    s.layer = model.graph.layer(jobs[li].node).name();
    s.accuracy_drop =
        std::max(0.0, baseline_acc - acc_sum / cfg.trials);
    out.push_back(std::move(s));
  }
  double max_drop = 0.0;
  for (const auto& s : out) max_drop = std::max(max_drop, s.accuracy_drop);
  for (auto& s : out) {
    s.normalized = max_drop > 0 ? s.accuracy_drop / max_drop : 0.0;
  }
  return out;
}

}  // namespace nocw::eval
