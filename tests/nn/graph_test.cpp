#include "nn/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "nn/init.hpp"
#include "util/rng.hpp"

namespace nocw::nn {
namespace {

/// Tiny DAG: input -> dense_a -> relu -> {dense_b, dense_c} -> add -> softmax
Graph make_diamond() {
  Graph g;
  const int in = g.add(std::make_unique<InputLayer>(
      "input", std::vector<int>{0, 4}));
  const int a = g.add(std::make_unique<Dense>("dense_a", 4, 8), {in});
  const int r = g.add(std::make_unique<ReLU>("relu"), {a});
  const int b = g.add(std::make_unique<Dense>("dense_b", 8, 3), {r});
  const int c = g.add(std::make_unique<Dense>("dense_c", 8, 3), {r});
  const int s = g.add(std::make_unique<Add>("add"), {b, c});
  g.add(std::make_unique<Softmax>("softmax"), {s});
  return g;
}

TEST(Graph, TopologicalInsertEnforced) {
  Graph g;
  g.add(std::make_unique<InputLayer>("input", std::vector<int>{0, 4}));
  EXPECT_THROW(g.add(std::make_unique<Dense>("d", 4, 4), {5}),
               std::invalid_argument);
  EXPECT_THROW(g.add(std::make_unique<Dense>("d", 4, 4), {-1}),
               std::invalid_argument);
}

TEST(Graph, NonInputNodeNeedsProducers) {
  Graph g;
  g.add(std::make_unique<InputLayer>("input", std::vector<int>{0, 4}));
  EXPECT_THROW(g.add(std::make_unique<Dense>("d", 4, 4), {}),
               std::invalid_argument);
}

TEST(Graph, FindByName) {
  Graph g = make_diamond();
  EXPECT_GE(g.find("dense_b"), 0);
  EXPECT_EQ(g.find("nope"), -1);
  EXPECT_EQ(g.layer(g.find("dense_b")).name(), "dense_b");
}

TEST(Graph, ForwardDiamondMatchesManual) {
  Graph g = make_diamond();
  init_graph(g, 11);
  Tensor in({1, 4});
  Xoshiro256pp rng(231);
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());
  const Tensor out = g.forward(in);
  ASSERT_EQ(out.shape(), (std::vector<int>{1, 3}));
  float sum = 0.0F;
  for (int c = 0; c < 3; ++c) sum += out.at(0, c);
  EXPECT_NEAR(sum, 1.0F, 1e-5F);
}

TEST(Graph, ForwardDeterministic) {
  Graph g = make_diamond();
  init_graph(g, 11);
  Tensor in({1, 4});
  in.fill(0.5F);
  const Tensor a = g.forward(in);
  const Tensor b = g.forward(in);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Graph, InputShapeValidated) {
  Graph g = make_diamond();
  Tensor bad({1, 5});
  EXPECT_THROW((void)g.forward(bad), std::invalid_argument);
}

TEST(Graph, TotalParamsSumsLayers) {
  Graph g = make_diamond();
  // dense_a 4*8+8, dense_b/c 8*3+3 each
  EXPECT_EQ(g.total_params(), (4u * 8 + 8) + 2 * (8u * 3 + 3));
}

TEST(Graph, ParameterizedNodesInOrder) {
  Graph g = make_diamond();
  const auto nodes = g.parameterized_nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(g.layer(nodes[0]).name(), "dense_a");
  EXPECT_EQ(g.layer(nodes[1]).name(), "dense_b");
  EXPECT_EQ(g.layer(nodes[2]).name(), "dense_c");
}

TEST(Graph, CaptureAndTailReplayMatchFullForward) {
  Graph g = make_diamond();
  init_graph(g, 12);
  Tensor in({2, 4});
  Xoshiro256pp rng(232);
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());

  // Capture at dense_b: its producer is the shared ReLU. dense_c also reads
  // the ReLU, so the tail (dense_b, dense_c, add, softmax) replays fully.
  const int capture = g.find("dense_b");
  const auto [full, captured] = g.forward_capturing(in, capture);
  const Tensor replay = g.forward_tail(captured, capture);
  ASSERT_EQ(replay.shape(), full.shape());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_FLOAT_EQ(replay[i], full[i]);
  }
}

TEST(Graph, TailReplaySeesWeightChanges) {
  // Logit-level graph (no softmax, which could saturate and mask changes).
  Graph g;
  const int in_node = g.add(std::make_unique<InputLayer>(
      "input", std::vector<int>{0, 4}));
  const int a = g.add(std::make_unique<Dense>("dense_a", 4, 8), {in_node});
  const int b = g.add(std::make_unique<Dense>("dense_b", 8, 3), {a});
  g.add(std::make_unique<Flatten>("flatten"), {b});
  init_graph(g, 13);
  Tensor in({1, 4});
  in.fill(1.0F);
  const auto [full, captured] = g.forward_capturing(in, b);
  // Perturb dense_b and replay: output must change without recomputing the
  // prefix.
  auto w = g.layer(b).kernel();
  w[0] += 10.0F;
  const Tensor replay = g.forward_tail(captured, b);
  bool changed = false;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (replay[i] != full[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Graph, KernelOverrideMatchesInstalledWeights) {
  // One node of every layer type that owns a kernel, plus parameterless ones.
  Graph g;
  const int in_node = g.add(std::make_unique<InputLayer>(
      "input", std::vector<int>{0, 6, 6, 2}));
  const int conv = g.add(
      std::make_unique<Conv2D>("conv", 2, 4, 3, 3, 1, Padding::Same),
      {in_node});
  const int bn = g.add(std::make_unique<BatchNorm>("bn", 4), {conv});
  const int relu = g.add(std::make_unique<ReLU>("relu"), {bn});
  const int dw = g.add(std::make_unique<DepthwiseConv2D>("dw", 4, 3, 3, 2,
                                                         Padding::Same),
                       {relu});
  const int flat = g.add(std::make_unique<Flatten>("flatten"), {dw});
  const int dense = g.add(std::make_unique<Dense>("dense", 3 * 3 * 4, 5),
                          {flat});
  init_graph(g, 15);
  Tensor in({3, 6, 6, 2});
  Xoshiro256pp rng(233);
  for (auto& v : in.data()) v = static_cast<float>(rng.normal());

  const auto expect_bitwise = [](const Tensor& a, const Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
  };
  for (int node : {conv, bn, dw, dense}) {
    SCOPED_TRACE(g.layer(node).name());
    const auto own = g.layer(node).kernel();
    const std::vector<float> saved(own.begin(), own.end());
    std::vector<float> w(own.size());
    for (auto& v : w) v = static_cast<float>(rng.normal());
    const auto [full, captured] = g.forward_capturing(in, node);

    const Tensor over = g.forward(in, {node, w});
    const Tensor over_tail = g.forward_tail(captured, node, {node, w});
    std::copy(w.begin(), w.end(), own.begin());
    const Tensor installed = g.forward(in);
    const Tensor installed_tail = g.forward_tail(captured, node);
    std::copy(saved.begin(), saved.end(), own.begin());

    expect_bitwise(over, installed);
    expect_bitwise(over_tail, installed_tail);
    expect_bitwise(g.forward(in), full);  // the graph itself was not written
    EXPECT_FALSE(std::equal(over.data().begin(), over.data().end(),
                            full.data().begin()));
  }

  const std::vector<float> short_kernel(g.layer(dense).kernel().size() - 1);
  EXPECT_THROW((void)g.forward(in, {dense, short_kernel}),
               std::invalid_argument);
  EXPECT_THROW((void)g.forward(in, {relu, {}}), std::invalid_argument);
  EXPECT_THROW((void)g.forward(in, {relu, short_kernel}),
               std::invalid_argument);
}

TEST(Graph, TailFromPrefixDependentNodeThrows) {
  // Capturing at dense_a and replaying would be fine (linear), but capturing
  // at `add` (two producers) is rejected.
  Graph g = make_diamond();
  init_graph(g, 14);
  Tensor in({1, 4});
  const int add = g.find("add");
  EXPECT_THROW((void)g.forward_capturing(in, add), std::invalid_argument);
}

TEST(Graph, EmptyGraphThrows) {
  Graph g;
  Tensor in({1, 4});
  EXPECT_THROW((void)g.forward(in), std::logic_error);
}

}  // namespace
}  // namespace nocw::nn
