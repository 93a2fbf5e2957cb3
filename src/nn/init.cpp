#include "nn/init.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace nocw::nn {

namespace {

// Weights per generation chunk. A constant, so chunk boundaries (and with
// them the work split) never depend on the thread count.
constexpr std::size_t kLaplacianChunk = std::size_t{1} << 16;

// Laplacian draws with the fan-scaled scale b. Weight i takes the i-th draw
// of `rng`'s stream (one draw per weight), so chunk c starts exactly
// c * kLaplacianChunk draws ahead: the starts are jumped to serially, the
// chunks filled on the pool, and `rng` is left just past the last weight,
// as a serial fill would leave it.
void fill_laplacian(std::span<float> kernel, double b_scale,
                    Xoshiro256pp& rng) {
  if (kernel.empty()) return;
  static const Xoshiro256pp::Jump kChunkJump(kLaplacianChunk);
  const std::size_t chunks =
      (kernel.size() + kLaplacianChunk - 1) / kLaplacianChunk;
  std::vector<Xoshiro256pp> starts(chunks, rng);
  for (std::size_t c = 1; c < chunks; ++c) {
    kChunkJump.apply(starts[c] = starts[c - 1]);
  }
  global_pool().parallel_for(
      0, chunks, 1, [&](std::size_t first, std::size_t last, unsigned) {
        for (std::size_t c = first; c < last; ++c) {
          Xoshiro256pp draws = starts[c];
          const std::size_t end =
              std::min(kernel.size(), (c + 1) * kLaplacianChunk);
          for (std::size_t i = c * kLaplacianChunk; i < end; ++i) {
            const double u = draws.uniform() - 0.5;
            const double mag = -b_scale * std::log(1.0 - 2.0 * std::abs(u));
            kernel[i] = static_cast<float>(u < 0 ? -mag : mag);
          }
          if (c + 1 == chunks) rng = draws;
        }
      });
}

struct Fan {
  double in = 1.0;
  double out = 1.0;
};

Fan fan_of(Layer& layer) {
  switch (layer.type()) {
    case LayerType::Conv2D: {
      auto& c = static_cast<Conv2D&>(layer);
      const double window = static_cast<double>(c.kernel_h()) * c.kernel_w();
      return {window * c.in_channels(), window * c.out_channels()};
    }
    case LayerType::DepthwiseConv2D: {
      auto& c = static_cast<DepthwiseConv2D&>(layer);
      const double window = static_cast<double>(c.kernel_h()) * c.kernel_w();
      return {window, window};
    }
    case LayerType::Dense: {
      auto& d = static_cast<Dense&>(layer);
      return {static_cast<double>(d.in_features()),
              static_cast<double>(d.out_features())};
    }
    default:
      return {};
  }
}

}  // namespace

void init_layer(Layer& layer, Xoshiro256pp& rng, InitScheme scheme,
                InitDistribution dist) {
  if (layer.type() == LayerType::BatchNorm) {
    auto& bn = static_cast<BatchNorm&>(layer);
    for (auto& g : bn.kernel()) g = static_cast<float>(rng.normal(1.0, 0.08));
    for (auto& b : bn.bias()) b = static_cast<float>(rng.normal(0.0, 0.05));
    for (auto& m : bn.moving_mean()) {
      m = static_cast<float>(rng.normal(0.0, 0.1));
    }
    for (auto& v : bn.moving_var()) {
      v = static_cast<float>(std::abs(rng.normal(1.0, 0.1)) + 0.1);
    }
    return;
  }
  const Fan fan = fan_of(layer);
  const double stddev =
      scheme == InitScheme::HeNormal
          ? std::sqrt(2.0 / fan.in)
          : std::sqrt(2.0 / (fan.in + fan.out));
  if (dist == InitDistribution::Gaussian) {
    for (auto& w : layer.kernel()) {
      w = static_cast<float>(rng.normal(0.0, stddev));
    }
  } else {
    // Laplacian with the same fan-scaled stddev (see InitDistribution docs).
    fill_laplacian(layer.kernel(), stddev / std::sqrt(2.0), rng);
  }
  for (auto& b : layer.bias()) b = 0.0F;
}

void init_graph(Graph& graph, std::uint64_t seed, InitScheme scheme,
                InitDistribution dist) {
  Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    init_layer(graph.layer(static_cast<int>(i)), rng, scheme, dist);
  }
}

}  // namespace nocw::nn
