// Router semantics on the flat lane store: XY routing, switch allocation,
// wormhole locks and round-robin priority of one router (node 5 = (1,1) of
// the default 4x4 mesh). With one VC a router's slot is its input port.
// Allocation goes through the one-slot-at-a-time oracle of
// allocate_oracle.hpp.
#include "noc/lane_store.hpp"

#include <gtest/gtest.h>

#include "allocate_oracle.hpp"

namespace nocw::noc {
namespace {

constexpr int kRouter = 5;  // node (1,1)
constexpr auto kAny = [](const Flit&) { return true; };

Flit head(int src, int dst, std::uint32_t id = 1) {
  Flit f;
  f.packet_id = id;
  f.src = static_cast<std::uint16_t>(src);
  f.dst = static_cast<std::uint16_t>(dst);
  f.type = FlitType::Head;
  return f;
}

/// Buffer `f` at an input port of the router, as of the last cycle edge.
void push(LaneStore& s, int port, const Flit& f) {
  s.arrive(s.lane(kRouter, port, 0), f);
  s.settle();
}

TEST(Router, XyRouteComputation) {
  const LaneStore s(NocConfig{});
  EXPECT_EQ(s.route(kRouter, 5), kLocal);
  EXPECT_EQ(s.route(kRouter, 6), kEast);
  EXPECT_EQ(s.route(kRouter, 4), kWest);
  EXPECT_EQ(s.route(kRouter, 1), kNorth);
  EXPECT_EQ(s.route(kRouter, 9), kSouth);
  // X resolved before Y: dst (3,3)=15 from (1,1) goes East first.
  EXPECT_EQ(s.route(kRouter, 15), kEast);
  // dst (1,3)=13: same column -> South.
  EXPECT_EQ(s.route(kRouter, 13), kSouth);
}

TEST(Router, AllocatePicksRequestingInput) {
  LaneStore s(NocConfig{});
  push(s, kWest, head(4, 6));  // wants East
  EXPECT_FALSE(allocate_with(s, kRouter, kNorth, kAny).has_value());
  const auto in = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(*in, kWest);
}

TEST(Router, WormholeLockHoldsUntilTail) {
  LaneStore s(NocConfig{});
  // Packet A: head+body+tail from West to East.
  Flit h = head(4, 6, 1);
  Flit b = h;
  b.type = FlitType::Body;
  Flit t = h;
  t.type = FlitType::Tail;
  push(s, kWest, h);
  // Competing head from North also wants East.
  push(s, kNorth, head(1, 6, 2));

  auto in = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(in.has_value());
  const int winner = *in;
  (void)s.grant(kRouter, winner, kEast);  // head claims the lock
  EXPECT_EQ(s.lock_owner(kRouter, kEast, 0), winner);

  // Body of the winning packet arrives later; until then no one else may use
  // the locked output.
  const auto blocked = allocate_with(s, kRouter, kEast, kAny);
  if (winner == kWest) {
    EXPECT_FALSE(blocked.has_value());  // owner's buffer is empty
    push(s, kWest, b);
    auto again = allocate_with(s, kRouter, kEast, kAny);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, kWest);
    (void)s.grant(kRouter, kWest, kEast);
    push(s, kWest, t);
    (void)s.grant(kRouter, kWest, kEast);  // tail releases the lock
    EXPECT_EQ(s.lock_owner(kRouter, kEast, 0), -1);
    const auto after = allocate_with(s, kRouter, kEast, kAny);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, kNorth);  // the competitor finally wins
  }
}

TEST(Router, BodyFlitWithoutLockNotGranted) {
  LaneStore s(NocConfig{});
  Flit b = head(4, 6);
  b.type = FlitType::Body;
  push(s, kWest, b);
  EXPECT_FALSE(allocate_with(s, kRouter, kEast, kAny).has_value());
}

TEST(Router, HeadTailReleasesImmediately) {
  LaneStore s(NocConfig{});
  Flit f = head(4, 6);
  f.type = FlitType::HeadTail;
  push(s, kWest, f);
  const auto in = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(in.has_value());
  (void)s.grant(kRouter, *in, kEast);
  push(s, kNorth, head(1, 6, 2));
  const auto next = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, kNorth);
}

TEST(Router, RoundRobinRotatesPriority) {
  LaneStore s(NocConfig{});
  // Two single-flit packets from different inputs, both to the East.
  Flit a = head(4, 6, 1);
  a.type = FlitType::HeadTail;
  Flit b = head(1, 6, 2);
  b.type = FlitType::HeadTail;
  push(s, kWest, a);
  push(s, kNorth, b);
  const auto first = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(first.has_value());
  (void)s.grant(kRouter, *first, kEast);
  EXPECT_EQ(s.rr_pointer(kRouter, kEast), (*first + 1) % s.slots());
  const auto second = allocate_with(s, kRouter, kEast, kAny);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);
}

TEST(Router, IdleAndBufferedCount) {
  LaneStore s(NocConfig{});
  EXPECT_EQ(s.buffered(kRouter), 0u);
  push(s, kWest, head(4, 6));
  EXPECT_EQ(s.buffered(kRouter), 1u);
  EXPECT_EQ(s.buffered(kRouter - 1), 0u);  // lanes are per router
  EXPECT_EQ(s.flush(), 1u);
  EXPECT_EQ(s.buffered(kRouter), 0u);
}

TEST(Router, GrantOnEmptyInputThrows) {
  LaneStore s(NocConfig{});
  EXPECT_THROW((void)s.grant(kRouter, kWest, kEast), std::logic_error);
}

}  // namespace
}  // namespace nocw::noc
