// Serial reference for nn::init_graph: the one-draw-at-a-time loop that
// defines the weight stream. nn::init_graph fills Laplacian kernels in
// parallel chunks and must reproduce this bit for bit, including the
// generator state it leaves behind.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace nocw::nn {

/// The weight of the Laplacian draw u = uniform() - 0.5 at scale b.
inline float reference_laplacian_weight(double u, double b_scale) {
  const double mag = -b_scale * std::log(1.0 - 2.0 * std::abs(u));
  return static_cast<float>(u < 0 ? -mag : mag);
}

/// One draw per weight, in order.
inline void reference_fill_laplacian(std::span<float> kernel, double b_scale,
                                     Xoshiro256pp& rng) {
  for (auto& w : kernel) {
    w = reference_laplacian_weight(rng.uniform() - 0.5, b_scale);
  }
}

inline void reference_init_layer(Layer& layer, Xoshiro256pp& rng,
                                 InitScheme scheme, InitDistribution dist) {
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
  double fan_in = 1.0;
  double fan_out = 1.0;
  if (layer.type() == LayerType::Conv2D) {
    auto& c = static_cast<Conv2D&>(layer);
    const double window = static_cast<double>(c.kernel_h()) * c.kernel_w();
    fan_in = window * c.in_channels();
    fan_out = window * c.out_channels();
  } else if (layer.type() == LayerType::DepthwiseConv2D) {
    auto& c = static_cast<DepthwiseConv2D&>(layer);
    fan_in = fan_out = static_cast<double>(c.kernel_h()) * c.kernel_w();
  } else if (layer.type() == LayerType::Dense) {
    auto& d = static_cast<Dense&>(layer);
    fan_in = static_cast<double>(d.in_features());
    fan_out = static_cast<double>(d.out_features());
  }
  const double stddev = scheme == InitScheme::HeNormal
                            ? std::sqrt(2.0 / fan_in)
                            : std::sqrt(2.0 / (fan_in + fan_out));
  if (dist == InitDistribution::Gaussian) {
    for (auto& w : layer.kernel()) {
      w = static_cast<float>(rng.normal(0.0, stddev));
    }
  } else {
    reference_fill_laplacian(layer.kernel(), stddev / std::sqrt(2.0), rng);
  }
  for (auto& b : layer.bias()) b = 0.0F;
}

/// Serial init_graph on a caller-owned generator, so a test can also compare
/// the state left behind.
inline void reference_init_graph(Graph& graph, Xoshiro256pp& rng,
                                 InitScheme scheme = InitScheme::GlorotNormal,
                                 InitDistribution dist =
                                     InitDistribution::Laplacian) {
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    reference_init_layer(graph.layer(static_cast<int>(i)), rng, scheme, dist);
  }
}

}  // namespace nocw::nn
