#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace nocw {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffers<int> rb(3, 4);
  EXPECT_EQ(rb.count(), 3u);
  EXPECT_EQ(rb.capacity(), 4u);
  for (std::size_t i = 0; i < rb.count(); ++i) {
    EXPECT_TRUE(rb.empty(i));
    EXPECT_FALSE(rb.full(i));
    EXPECT_EQ(rb.size(i), 0u);
  }
}

TEST(RingBuffer, FifoOrder) {
  RingBuffers<int> rb(2, 3);
  rb.push(1, 1);
  rb.push(1, 2);
  rb.push(1, 3);
  EXPECT_TRUE(rb.full(1));
  EXPECT_TRUE(rb.empty(0));  // rings share storage, not contents
  EXPECT_EQ(rb.sizes()[0], 0u);
  EXPECT_EQ(rb.sizes()[1], 3u);
  EXPECT_EQ(rb.pop(1), 1);
  EXPECT_EQ(rb.pop(1), 2);
  EXPECT_EQ(rb.pop(1), 3);
  EXPECT_TRUE(rb.empty(1));
}

TEST(RingBuffer, WrapsAroundCapacity) {
  RingBuffers<int> rb(2, 2);
  for (int i = 0; i < 100; ++i) {
    rb.push(0, i);
    rb.push(1, -i);
    EXPECT_EQ(rb.pop(0), i);
    EXPECT_EQ(rb.pop(1), -i);
  }
  EXPECT_TRUE(rb.empty(0));
  EXPECT_TRUE(rb.empty(1));
}

TEST(RingBuffer, InterleavedPushPopKeepsOrder) {
  RingBuffers<int> rb(1, 4);
  rb.push(0, 0);
  rb.push(0, 1);
  EXPECT_EQ(rb.pop(0), 0);
  rb.push(0, 2);
  rb.push(0, 3);
  rb.push(0, 4);
  EXPECT_TRUE(rb.full(0));
  EXPECT_EQ(rb.pop(0), 1);
  EXPECT_EQ(rb.pop(0), 2);
  EXPECT_EQ(rb.pop(0), 3);
  EXPECT_EQ(rb.pop(0), 4);
}

TEST(RingBuffer, FrontDoesNotConsume) {
  RingBuffers<std::string> rb(2, 2);
  rb.push(1, "a");
  EXPECT_EQ(rb.front(1), "a");
  EXPECT_EQ(rb.size(1), 1u);
  EXPECT_EQ(rb.pop(1), "a");
}

TEST(RingBuffer, MoveOnlyTypes) {
  RingBuffers<std::unique_ptr<int>> rb(1, 2);
  rb.push(0, std::make_unique<int>(5));
  auto p = rb.pop(0);
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 5);
}

TEST(RingBuffer, ClearResets) {
  RingBuffers<int> rb(2, 3);
  rb.push(0, 1);
  rb.push(0, 2);
  rb.push(1, 7);
  rb.clear();
  EXPECT_TRUE(rb.empty(0));
  EXPECT_TRUE(rb.empty(1));
  rb.push(0, 9);
  EXPECT_EQ(rb.front(0), 9);
}

}  // namespace
}  // namespace nocw
