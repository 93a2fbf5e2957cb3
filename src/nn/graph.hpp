// Static DAG of layers (the model container for the zoo).
//
// Nodes are appended in topological order (every input edge must point to an
// already-added node), which makes execution a single in-order sweep. The
// graph supports the penultimate-activation caching trick used by the
// evaluation flow: because compression perturbs exactly one layer, the
// expensive prefix up to that layer is computed once per probe input and
// only the tail is replayed per δ (see forward_capturing / forward_tail).
// A pass may read one node's kernel from a caller's buffer or a panel source
// (KernelOverride) instead of the graph, so sweeps never write to the model
// and any number of threads can replay different approximations on one
// const Graph; a source lets the δ-sweep feed codec output straight into
// the layer's GEMM without a kernel-sized buffer.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace nocw::nn {

/// Weights that node `node` reads in place of its own kernel for one pass;
/// node -1 means no override. They come from `kernel`, or from `source`
/// when that is set: a source is read once, panel by panel, so a pass with
/// one never splits its batch across lanes. The node must be one the pass
/// runs and have a kernel, and the override must have that kernel's size,
/// or the pass throws std::invalid_argument.
struct KernelOverride {
  int node = -1;
  std::span<const float> kernel;
  KernelSource* source = nullptr;
};

class Graph {
 public:
  struct Node {
    LayerPtr layer;
    std::vector<int> inputs;  ///< indices of producer nodes (empty for input)
  };

  /// Append a node; returns its index. All `input_nodes` must be < the new
  /// index (topological insertion).
  int add(LayerPtr layer, std::vector<int> input_nodes = {});

  /// Convenience for linear chains: wires to the previously added node.
  int add_sequential(LayerPtr layer);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const Node& node(int i) const { return nodes_.at(i); }
  [[nodiscard]] Layer& layer(int i) { return *nodes_.at(i).layer; }
  [[nodiscard]] const Layer& layer(int i) const { return *nodes_.at(i).layer; }

  /// Index of the node whose layer has this name; -1 if absent.
  [[nodiscard]] int find(const std::string& name) const noexcept;

  /// Full forward pass; returns the last node's output. When the global
  /// thread pool has more than one lane, the batch has 2+ samples and no
  /// kernel source is set, the batch is split into contiguous sub-batches
  /// executed concurrently;
  /// samples are independent, so outputs are bit-identical to the serial
  /// sweep for any NOCW_THREADS.
  [[nodiscard]] Tensor forward(const Tensor& input,
                               KernelOverride kernel = {}) const;

  /// Forward pass that also returns the (single) input tensor feeding node
  /// `capture`: the cached activation for the δ-sweep replay. Requires node
  /// `capture` to have exactly one producer.
  [[nodiscard]] std::pair<Tensor, Tensor> forward_capturing(
      const Tensor& input, int capture) const;

  /// Replay only nodes [from, end) given the captured input of node `from`.
  /// Every replayed node may consume only the captured tensor or outputs of
  /// other replayed nodes (true for the tail-of-network layers the selection
  /// policy picks); violations throw.
  [[nodiscard]] Tensor forward_tail(const Tensor& captured_input, int from,
                                    KernelOverride kernel = {}) const;

  /// Sum of param_count() over all layers.
  [[nodiscard]] std::size_t total_params() const noexcept;

  /// Indices of nodes whose layer has a non-empty kernel, in graph order.
  [[nodiscard]] std::vector<int> parameterized_nodes() const;

 private:
  /// The one pass behind every forward: runs nodes [from, end). With
  /// from == 0 `input` feeds the input node; otherwise it stands in for the
  /// output of node `from`'s single producer. When `keep` is a node index,
  /// a copy of that node's output lands in `*kept`. A node is handed its
  /// first producer's output (Layer::forward_owned) when the pass made it,
  /// no later node reads it and the node reads it once; `input` is never
  /// handed over.
  [[nodiscard]] Tensor walk(const Tensor& input, int from,
                            KernelOverride kernel, int keep = -1,
                            Tensor* kept = nullptr) const;
  [[nodiscard]] Tensor forward_batched(const Tensor& input,
                                       KernelOverride kernel) const;

  std::vector<Node> nodes_;
};

}  // namespace nocw::nn
