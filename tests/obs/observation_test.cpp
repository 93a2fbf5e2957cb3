#include "obs/observation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace nocw::obs {
namespace {

TEST(Observation, MergeAddsCountsAndWindows) {
  NocObservation a;
  a.link_flits = {1, 2};
  a.node_ejections = {3};
  a.window_cycles = 100;
  a.collected = true;

  NocObservation b;
  b.link_flits = {10, 20};
  b.node_ejections = {30};
  b.window_cycles = 50;
  b.collected = true;

  a.merge(b);
  EXPECT_EQ(a.link_flits, (std::vector<std::uint64_t>{11, 22}));
  EXPECT_EQ(a.node_ejections, (std::vector<std::uint64_t>{33}));
  EXPECT_EQ(a.window_cycles, 150u);
  EXPECT_TRUE(a.collected);

  NocObservation empty;
  empty.merge(a);  // merging into an empty observation adopts the sizes
  EXPECT_EQ(empty.link_flits, a.link_flits);
  EXPECT_TRUE(empty.collected);
}

}  // namespace
}  // namespace nocw::obs
