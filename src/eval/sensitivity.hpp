// Per-layer sensitivity analysis (paper Fig. 9).
//
// The sensitivity of a layer is the accuracy drop caused by perturbing its
// weights with noise of a fixed relative magnitude (a fraction of the
// layer's own value range). The paper uses this to justify the Layer
// Selection policy: layers near the input are markedly more sensitive than
// the deep, parameter-heavy layers the policy picks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/digits.hpp"
#include "nn/models.hpp"

namespace nocw::eval {

struct SensitivityConfig {
  double noise_fraction = 0.1;  ///< noise amplitude as fraction of range
  int trials = 2;               ///< noise draws averaged per layer
  int probes = 6;               ///< agreement-mode probe count
  int topk = 5;
  std::uint64_t seed = 777;
  /// Scale each layer's per-weight noise by sqrt(n̄/n) (n̄ = geometric mean
  /// layer size) so every layer receives the same total perturbation
  /// energy. Without this, parameter-heavy layers accumulate more total
  /// noise and the comparison conflates size with fragility; with it, the
  /// per-unit-perturbation sensitivity the paper's Fig. 9 plots emerges.
  bool equalize_energy = true;
};

struct LayerSensitivity {
  std::string layer;
  double accuracy_drop = 0.0;  ///< baseline accuracy - perturbed accuracy
  double normalized = 0.0;     ///< drop / max drop over all layers
};

/// Perturb each parameterized layer in turn and measure the accuracy drop.
/// With `test` non-null accuracy is top-k against labels (trained LeNet-5);
/// otherwise it is top-k agreement with the unperturbed model. The model is
/// only read: each (layer, trial) task replays with a perturbed copy of the
/// layer's kernel as an override, and tasks run on every pool lane at once.
std::vector<LayerSensitivity> sensitivity_analysis(
    const nn::Model& model, const nn::Dataset* test,
    const SensitivityConfig& cfg);

}  // namespace nocw::eval
