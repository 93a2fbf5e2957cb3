// Graph::walk hands a layer its first producer's tensor when no later node
// reads it, and in-place layers (ReLU, ReLU6, BatchNorm, Flatten, Reshape,
// Softmax, Add) write their output over it. These tests pin that the moves
// change no bit: forward, forward_capturing and forward_tail on a graph with
// every layer type must equal a reference walk that keeps every output and
// calls each Layer::forward on fresh copies of its inputs, at 1, 2 and 8
// threads, with and without kernel overrides, and must leave the caller's
// input and captured tensor untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gemm_reference.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::nn {
namespace {

/// Node indices of the test graph.
struct Nodes {
  int conv3, bn, relu, dw, relu6, pw, add, twice, pool, avg, cat, bn2, relu2,
      gap, reshape, flat, dense, softmax;
};

/// Every layer type, with the cases walk must tell apart: `bn` feeds `relu`
/// but is read again later by `avg` (no hand-over to `relu`), `relu6` and
/// `pw` are each read once by the next node (handed over), and `twice` is
/// Add(x, x) (read twice, no hand-over). At 48 x 48 x 16 and batch 5 every
/// elementwise, pooling and concat pass spans several pool chunks.
Graph make_every_layer(Nodes& n) {
  Graph g;
  const int in = g.add(std::make_unique<InputLayer>(
      "input", std::vector<int>{0, 48, 48, 3}));
  n.conv3 = g.add(std::make_unique<Conv2D>("conv3", 3, 16, 3, 3, 1,
                                           Padding::Same),
                  {in});
  n.bn = g.add(std::make_unique<BatchNorm>("bn", 16), {n.conv3});
  n.relu = g.add(std::make_unique<ReLU>("relu"), {n.bn});
  n.dw = g.add(std::make_unique<DepthwiseConv2D>("dw", 16, 3, 3, 1,
                                                 Padding::Same),
               {n.relu});
  n.relu6 = g.add(std::make_unique<ReLU6>("relu6"), {n.dw});
  n.pw = g.add(
      std::make_unique<Conv2D>("pw", 16, 16, 1, 1, 1, Padding::Valid),
      {n.relu6});
  n.add = g.add(std::make_unique<Add>("add"), {n.pw, n.relu});
  n.twice = g.add(std::make_unique<Add>("twice"), {n.add, n.add});
  n.pool = g.add(std::make_unique<MaxPool>("pool", 3, 1, Padding::Same),
                 {n.twice});
  n.avg = g.add(std::make_unique<AvgPool>("avg", 3, 1, Padding::Same),
                {n.bn});
  n.cat = g.add(std::make_unique<Concat>("cat"), {n.pool, n.avg});
  n.bn2 = g.add(std::make_unique<BatchNorm>("bn2", 32), {n.cat});
  n.relu2 = g.add(std::make_unique<ReLU>("relu2"), {n.bn2});
  n.gap = g.add(std::make_unique<GlobalAvgPool>("gap"), {n.relu2});
  n.reshape = g.add(
      std::make_unique<Reshape>("reshape", std::vector<int>{1, 1, 32}),
      {n.gap});
  n.flat = g.add(std::make_unique<Flatten>("flat"), {n.reshape});
  n.dense = g.add(std::make_unique<Dense>("dense", 32, 10), {n.flat});
  n.softmax = g.add(std::make_unique<Softmax>("softmax"), {n.dense});
  return g;
}

/// init_graph, then BatchNorm parameters away from the identity so the
/// normalization does real arithmetic.
void init_every_layer(Graph& g) {
  init_graph(g, 17);
  Xoshiro256pp rng(18);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    Layer& layer = g.layer(static_cast<int>(i));
    if (layer.type() != LayerType::BatchNorm) continue;
    auto& bn = static_cast<BatchNorm&>(layer);
    for (float& v : bn.kernel()) v = static_cast<float>(rng.normal());
    for (float& v : bn.bias()) v = static_cast<float>(rng.normal());
    for (float& v : bn.moving_mean()) v = static_cast<float>(rng.normal());
    for (float& v : bn.moving_var()) {
      v = 0.5F + static_cast<float>(std::fabs(rng.normal()));
    }
  }
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Xoshiro256pp rng(seed);
  // Wide enough that ReLU6 clamps at both ends.
  for (float& v : t.data()) v = static_cast<float>(4.0 * rng.normal());
  return t;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// A kernel streamed in panels of three rows.
class ThreeRowSource final : public KernelSource {
 public:
  explicit ThreeRowSource(std::span<const float> kernel) : kernel_(kernel) {}
  [[nodiscard]] std::size_t size() const noexcept override {
    return kernel_.size();
  }
  void stream(std::size_t row_len, const PanelConsumer& consume) override {
    for (std::size_t at = 0; at < kernel_.size(); at += 3 * row_len) {
      consume(kernel_.subspan(at, std::min(3 * row_len, kernel_.size() - at)));
    }
  }

 private:
  std::span<const float> kernel_;
};

/// A pass's kernel override as the reference applies it: a span, or a
/// kernel streamed through a fresh ThreeRowSource.
struct Override {
  int node = -1;
  std::span<const float> kernel;
  bool streamed = false;
};

/// Nodes [from, end) with every output kept and every layer run on fresh
/// copies of its inputs; with from > 0, `input` is the output of node
/// `from`'s producer. Returns all outputs.
std::vector<Tensor> reference_walk(const Graph& g, const Tensor& input,
                                   int from, const Override& k) {
  std::vector<Tensor> outputs(g.node_count());
  if (from > 0) outputs[g.node(from).inputs[0]] = input;
  for (int i = from; i < static_cast<int>(g.node_count()); ++i) {
    std::vector<Tensor> copies;
    if (g.node(i).inputs.empty()) copies.push_back(input);
    for (int in : g.node(i).inputs) copies.push_back(outputs[in]);
    std::vector<const Tensor*> ins;
    for (const Tensor& t : copies) ins.push_back(&t);
    if (i != k.node) {
      outputs[i] = g.layer(i).forward(ins);
    } else if (k.streamed) {
      ThreeRowSource source(k.kernel);
      outputs[i] = g.layer(i).forward(ins, source);
    } else {
      outputs[i] = g.layer(i).forward(ins, k.kernel);
    }
  }
  return outputs;
}

::testing::AssertionResult same_tensor(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << got.shape_string() << " vs " << want.shape_string();
  }
  return bitwise_equal(got.data(), want.data());
}

class ForwardOwnership : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = make_every_layer(n_);
    init_every_layer(g_);
    input_ = random_tensor({5, 48, 48, 3}, 19);
  }
  void TearDown() override { set_global_threads(1); }

  /// The graph's override for `k`, with a source over `k.kernel`.
  static KernelOverride graph_override(const Override& k,
                                       ThreeRowSource& source) {
    if (k.node == -1) return {};
    if (k.streamed) return {k.node, {}, &source};
    return {k.node, k.kernel};
  }

  /// Overrides every pass runs under: none, spans on both BatchNorms, the
  /// im2col and pointwise Conv2Ds, and a streamed Dense kernel.
  std::vector<Override> overrides() {
    kernels_.clear();
    std::vector<Override> out = {Override{}};
    const auto add = [&](int node, bool streamed) {
      kernels_.push_back(
          random_vec(g_.layer(node).kernel().size(), 30 + kernels_.size()));
      out.push_back({node, kernels_.back(), streamed});
    };
    kernels_.reserve(5);
    add(n_.bn, false);
    add(n_.bn2, false);
    add(n_.conv3, false);
    add(n_.pw, false);
    add(n_.dense, true);
    return out;
  }

  Graph g_;
  Nodes n_{};
  Tensor input_;
  std::vector<std::vector<float>> kernels_;
};

TEST_F(ForwardOwnership, ForwardMatchesCopyingReference) {
  const Tensor before = input_;
  for (const Override& k : overrides()) {
    const Tensor want = reference_walk(g_, input_, 0, k).back();
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      ThreeRowSource source(k.kernel);
      const Tensor got = g_.forward(input_, graph_override(k, source));
      ASSERT_TRUE(same_tensor(got, want))
          << "override node " << k.node << " threads " << threads;
      ASSERT_TRUE(same_tensor(input_, before));
    }
  }
}

TEST_F(ForwardOwnership, ForwardCapturingMatchesCopyingReference) {
  const Tensor before = input_;
  const std::vector<Tensor> want = reference_walk(g_, input_, 0, {});
  for (int capture : {n_.relu, n_.bn2, n_.relu2, n_.dense, n_.softmax}) {
    const int producer = g_.node(capture).inputs[0];
    for (unsigned threads : {1U, 2U, 8U}) {
      set_global_threads(threads);
      const auto [out, captured] = g_.forward_capturing(input_, capture);
      ASSERT_TRUE(same_tensor(out, want.back()))
          << "capture " << capture << " threads " << threads;
      ASSERT_TRUE(same_tensor(captured, want[producer]))
          << "capture " << capture << " threads " << threads;
      ASSERT_TRUE(same_tensor(input_, before));
    }
  }
}

TEST_F(ForwardOwnership, ForwardTailMatchesCopyingReference) {
  // Tails that start at an in-place layer read the captured tensor first;
  // it must come back unchanged.
  for (int from : {n_.bn2, n_.relu2, n_.gap, n_.dense}) {
    const Tensor captured = g_.forward_capturing(input_, from).second;
    const Tensor before = captured;
    for (const Override& k : overrides()) {
      if (k.node != -1 && k.node < from) continue;
      const Tensor want = reference_walk(g_, captured, from, k).back();
      for (unsigned threads : {1U, 2U, 8U}) {
        set_global_threads(threads);
        ThreeRowSource source(k.kernel);
        const Tensor got =
            g_.forward_tail(captured, from, graph_override(k, source));
        ASSERT_TRUE(same_tensor(got, want)) << "from " << from
                                            << " override node " << k.node
                                            << " threads " << threads;
        ASSERT_TRUE(same_tensor(captured, before)) << "from " << from;
      }
    }
  }
}

TEST_F(ForwardOwnership, InPlaceLayersLeaveTheirInputAlone) {
  // The copying forward is copy + the in-place arithmetic: the input keeps
  // its bits and the output equals forward_owned on a copy.
  const Tensor x = random_tensor({2, 4, 4, 32}, 21);
  for (int node : {n_.bn2, n_.relu2, n_.relu6}) {
    const Layer& layer = g_.layer(node);
    const Tensor* ins[] = {&x};
    const Tensor before = x;
    const Tensor copied = layer.forward(ins);
    ASSERT_TRUE(same_tensor(x, before)) << layer.name();
    ASSERT_TRUE(same_tensor(layer.forward_owned(Tensor(x), {}, {}), copied))
        << layer.name();
  }
  const Tensor* twice[] = {&x, &x};
  const Tensor sum = g_.layer(n_.add).forward(twice);
  ASSERT_TRUE(same_tensor(
      sum, g_.layer(n_.add).forward_owned(
               Tensor(x), std::span<const Tensor* const>(twice).subspan(1),
               {})));
  // A layer without a kernel refuses one, owned input or not.
  EXPECT_THROW(
      (void)g_.layer(n_.relu).forward_owned(Tensor(x), {}, x.data()),
      std::invalid_argument);
}

}  // namespace
}  // namespace nocw::nn
