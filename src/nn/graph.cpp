#include "nn/graph.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace nocw::nn {

int Graph::add(LayerPtr layer, std::vector<int> input_nodes) {
  const int idx = static_cast<int>(nodes_.size());
  for (int in : input_nodes) {
    if (in < 0 || in >= idx) {
      throw std::invalid_argument("graph edges must be topological");
    }
  }
  if (!nodes_.empty() && input_nodes.empty() &&
      layer->type() != LayerType::Input) {
    throw std::invalid_argument("non-input node needs producers");
  }
  nodes_.push_back(Node{std::move(layer), std::move(input_nodes)});
  return idx;
}

int Graph::add_sequential(LayerPtr layer) {
  if (nodes_.empty()) return add(std::move(layer));
  return add(std::move(layer), {static_cast<int>(nodes_.size()) - 1});
}

int Graph::find(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].layer->name() == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// Index of the last node consuming each node's output (-1 = never used).
std::vector<int> last_use(const std::vector<Graph::Node>& nodes) {
  std::vector<int> last(nodes.size(), -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (int in : nodes[i].inputs) last[in] = static_cast<int>(i);
  }
  return last;
}

}  // namespace

Tensor Graph::forward(const Tensor& input, KernelOverride kernel) const {
  if (nodes_.empty()) throw std::logic_error("empty graph");
  const int batch = input.rank() > 0 ? input.dim(0) : 0;
  if (batch >= 2 && kernel.source == nullptr && global_pool().size() > 1 &&
      !ThreadPool::in_parallel_region()) {
    return forward_batched(input, kernel);
  }
  return walk(input, 0, kernel);
}

Tensor Graph::forward_batched(const Tensor& input,
                              KernelOverride kernel) const {
  ThreadPool& pool = global_pool();
  const std::size_t batch = static_cast<std::size_t>(input.dim(0));
  const std::size_t in_stride = input.size() / batch;
  // One contiguous sub-batch per chunk; chunk index = b0 / grain. Sample
  // independence makes the stitched output bit-identical to the serial pass.
  const std::size_t grain = (batch + pool.size() - 1) / pool.size();
  std::vector<Tensor> parts((batch + grain - 1) / grain);
  pool.parallel_for(
      0, batch, grain, [&](std::size_t b0, std::size_t b1, unsigned /*lane*/) {
        std::vector<int> sub_shape = input.shape();
        sub_shape[0] = static_cast<int>(b1 - b0);
        Tensor sub(std::move(sub_shape));
        std::memcpy(sub.raw(), input.raw() + b0 * in_stride,
                    (b1 - b0) * in_stride * sizeof(float));
        parts[b0 / grain] = walk(sub, 0, kernel);
      });
  std::vector<int> out_shape = parts.front().shape();
  const std::size_t out_stride =
      parts.front().size() /
      static_cast<std::size_t>(parts.front().dim(0));
  out_shape[0] = static_cast<int>(batch);
  Tensor out(std::move(out_shape));
  std::size_t row = 0;
  for (const Tensor& p : parts) {
    std::memcpy(out.raw() + row * out_stride, p.raw(),
                p.size() * sizeof(float));
    row += static_cast<std::size_t>(p.dim(0));
  }
  return out;
}

std::pair<Tensor, Tensor> Graph::forward_capturing(const Tensor& input,
                                                   int capture) const {
  if (capture < 0 || capture >= static_cast<int>(nodes_.size())) {
    throw std::out_of_range("capture node out of range");
  }
  if (nodes_[capture].inputs.size() != 1) {
    throw std::invalid_argument("capture node must have a single producer");
  }
  Tensor captured;
  Tensor out = walk(input, 0, {}, nodes_[capture].inputs[0], &captured);
  return {std::move(out), std::move(captured)};
}

Tensor Graph::forward_tail(const Tensor& captured_input, int from,
                           KernelOverride kernel) const {
  if (from <= 0 || from >= static_cast<int>(nodes_.size())) {
    throw std::out_of_range("tail start out of range");
  }
  if (nodes_[from].inputs.size() != 1) {
    throw std::invalid_argument("tail start must have a single producer");
  }
  return walk(captured_input, from, kernel);
}

Tensor Graph::walk(const Tensor& input, int from, KernelOverride kernel,
                   int keep, Tensor* kept) const {
  const int end = static_cast<int>(nodes_.size());
  if (kernel.node != -1) {
    if (kernel.node < from || kernel.node >= end) {
      throw std::invalid_argument("kernel override targets a node not run");
    }
    const std::size_t own = nodes_[kernel.node].layer->kernel().size();
    const std::size_t given =
        kernel.source ? kernel.source->size() : kernel.kernel.size();
    if (own == 0 || own != given) {
      throw std::invalid_argument(
          "kernel override must match the size of the node's kernel");
    }
  }
  const int source = from == 0 ? -1 : nodes_[from].inputs[0];
  const std::vector<int> last = last_use(nodes_);
  std::vector<Tensor> outputs(nodes_.size());
  for (int i = from; i < end; ++i) {
    const Node& n = nodes_[i];
    std::vector<const Tensor*> ins;
    if (n.inputs.empty()) ins.push_back(&input);
    for (int in : n.inputs) {
      if (in == source) {
        ins.push_back(&input);
      } else if (in >= from) {
        ins.push_back(&outputs[in]);
      } else {
        throw std::logic_error(
            "forward_tail: node depends on an uncaptured prefix output");
      }
    }
    const std::span<const float> k =
        i == kernel.node ? kernel.kernel : std::span<const float>{};
    // The first producer's tensor moves into the layer when this node is
    // its only remaining reader: walk made it (it is not the caller's input
    // or captured tensor), no later node reads it, and this node reads it
    // once.
    const int first = n.inputs.empty() ? -1 : n.inputs[0];
    const bool hand_over =
        first >= from && last[first] == i &&
        std::count(n.inputs.begin(), n.inputs.end(), first) == 1;
    if (i == kernel.node && kernel.source) {
      outputs[i] = n.layer->forward(ins, *kernel.source);
    } else if (hand_over) {
      outputs[i] = n.layer->forward_owned(std::move(outputs[first]),
                                          std::span(ins).subspan(1), k);
    } else if (!k.empty()) {
      outputs[i] = n.layer->forward(ins, k);
    } else {
      outputs[i] = n.layer->forward(ins);
    }
    if (i == keep) *kept = outputs[i];
    // Release producers that no later node consumes (activation footprint of
    // a full VGG pass drops from ~100 MB to the live window).
    for (int in : n.inputs) {
      if (last[in] == i) outputs[in] = Tensor{};
    }
  }
  return std::move(outputs.back());
}

std::size_t Graph::total_params() const noexcept {
  std::size_t total = 0;
  for (const auto& n : nodes_) total += n.layer->param_count();
  return total;
}

std::vector<int> Graph::parameterized_nodes() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].layer->kernel().empty()) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace nocw::nn
