// Deterministic weight initialization for the model zoo.
//
// The paper compresses *trained* Keras models; we have no network access, so
// (per DESIGN.md §4) the ImageNet-scale zoo is instantiated with fan-in
// scaled Gaussian weights (He/Glorot). This preserves the two properties the
// paper's metrics depend on: the weight stream is high-entropy (Fig. 3) and
// the per-layer value range shrinks with fan-in, which yields the paper's
// MSE ordering across models in Table II. LeNet-5 is trained for real by
// nn/train.hpp on top of this initialization.
#pragma once

#include <cstdint>

#include "nn/graph.hpp"
#include "util/rng.hpp"

namespace nocw::nn {

enum class InitScheme {
  HeNormal,      ///< std = sqrt(2 / fan_in) — conv/dense with ReLU
  GlorotNormal,  ///< std = sqrt(2 / (fan_in + fan_out))
};

enum class InitDistribution {
  /// Gaussian — matches the statistics of small trained networks; used for
  /// LeNet-5, whose Table II rows the paper derives from a net this repo
  /// actually trains.
  Gaussian,
  /// Laplacian (peaked, heavy-tailed) — matches the documented statistics of
  /// large trained CNNs; the tail-driven max-min range is what makes the
  /// paper's δ-as-percent-of-range compression effective on the ImageNet
  /// zoo (DESIGN.md §5).
  Laplacian,
};

/// Initialize one layer's kernel/bias in place. fan_in/fan_out are derived
/// from the layer geometry. BatchNorm gets gamma=1, beta=0, and slightly
/// dispersed moving statistics so folded scales are not all identical.
///
/// Every weight is drawn from `rng`'s one stream, in kernel order, and `rng`
/// is left where that serial walk would leave it. A Laplacian kernel takes
/// exactly one draw per weight, so it is filled in parallel on global_pool():
/// fixed 2^16-weight chunks, each started by xoshiro jump-ahead
/// (Xoshiro256pp::Jump). Within a chunk, blocks of 256 draws are taken
/// serially and turned into weights by a vectorized log at the widest
/// vector width the CPU runs; a rounding guard hands any block whose floats
/// could depend on the log's last bits to the scalar std::log expression,
/// so every weight is the serial std::log loop's. BatchNorm and Gaussian
/// layers (normal() keeps a cached deviate) stay serial. The weights are
/// therefore bit-identical at any thread count and vector width
/// (DESIGN.md §17).
void init_layer(Layer& layer, Xoshiro256pp& rng,
                InitScheme scheme = InitScheme::GlorotNormal,
                InitDistribution dist = InitDistribution::Laplacian);

/// Initialize every parameterized layer of the graph deterministically from
/// `seed`. Layer order (graph order) fixes the stream, so a given
/// (model, seed) pair always produces identical weights.
void init_graph(Graph& graph, std::uint64_t seed,
                InitScheme scheme = InitScheme::GlorotNormal,
                InitDistribution dist = InitDistribution::Laplacian);

}  // namespace nocw::nn
