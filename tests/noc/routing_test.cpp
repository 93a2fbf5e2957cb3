#include <gtest/gtest.h>

#include "noc/lane_store.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "util/check.hpp"

namespace nocw::noc {
namespace {

TEST(Routing, YxResolvesYFirst)
{
  NocConfig cfg;
  cfg.routing = Routing::YX;
  const LaneStore lanes(cfg);
  // Node 5 = (1,1); dst (3,3)=15: YX goes South first (XY would go East).
  EXPECT_EQ(lanes.route(5, 15), kSouth);
  EXPECT_EQ(lanes.route(5, 6), kEast);   // same row: X move
  EXPECT_EQ(lanes.route(5, 13), kSouth);
  EXPECT_EQ(lanes.route(5, 5), kLocal);
}

TEST(Routing, XyAndYxDeliverSameTraffic) {
  for (Routing routing : {Routing::XY, Routing::YX}) {
    NocConfig cfg;
    cfg.routing = routing;
    Network net(cfg);
    const auto ps = uniform_random_traffic(cfg, 400, 4, 2024);
    net.add_packets(ps);
    net.run_until_drained(1000000);
    EXPECT_EQ(net.stats().flits_ejected, total_flits(ps));
  }
}

TEST(Routing, HopCountsIdenticalAcrossOrders) {
  // Both orders route minimal paths: total link traversals must match.
  auto links = [](Routing routing) {
    NocConfig cfg;
    cfg.routing = routing;
    Network net(cfg);
    net.add_packets(uniform_random_traffic(cfg, 300, 2, 7));
    net.run_until_drained(1000000);
    return net.stats().link_traversals;
  };
  EXPECT_EQ(links(Routing::XY), links(Routing::YX));
}

TEST(Routing, OrdersDifferOnContendedPaths) {
  // Column-heavy traffic: XY funnels it through different links than YX, so
  // drain times generally differ while delivery is identical.
  auto cycles = [](Routing routing) {
    NocConfig cfg;
    cfg.routing = routing;
    Network net(cfg);
    // Many flows crossing both dimensions.
    for (int s : {0, 1, 4, 5}) {
      net.add_packets(stream_flow(s, 15 - s, 500, 16));
    }
    return net.run_until_drained(1000000);
  };
  const auto xy = cycles(Routing::XY);
  const auto yx = cycles(Routing::YX);
  EXPECT_GT(xy, 0u);
  EXPECT_GT(yx, 0u);
  // No assertion on which wins — only that both complete; the ablation
  // bench reports the actual numbers.
}

// --- RouteTable (fault-aware west-first, DESIGN.md §13) -------------------

/// Neighbor of `node` through output `port`, or -1 off-mesh.
int neighbor_of(const NocConfig& cfg, int node, int port) {
  int x = cfg.node_x(node);
  int y = cfg.node_y(node);
  switch (port) {
    case kNorth: y -= 1; break;
    case kSouth: y += 1; break;
    case kEast: x += 1; break;
    case kWest: x -= 1; break;
    default: return -1;
  }
  if (x < 0 || x >= cfg.width || y < 0 || y >= cfg.height) return -1;
  return cfg.node_id(x, y);
}

TEST(RouteTable, ZeroFaultTableMatchesXyDor) {
  // The adaptive mode's free-insurance property: with nothing broken the
  // west-first table must equal XY DOR entry for entry — that is what makes
  // no-fault adaptive runs bit-identical to the baseline.
  NocConfig cfg;
  const RouteTable t(cfg, RouteMode::WestFirst);
  for (int node = 0; node < cfg.node_count(); ++node) {
    for (int dst = 0; dst < cfg.node_count(); ++dst) {
      ASSERT_EQ(t.next_hop(node, dst), dor_next_hop(cfg, node, dst))
          << "node " << node << " dst " << dst;
    }
  }
}

TEST(RouteTable, WestFirstRequiresXyRouting) {
  NocConfig cfg;
  cfg.routing = Routing::YX;
  EXPECT_THROW(RouteTable(cfg, RouteMode::WestFirst), CheckError);
}

TEST(RouteTable, ReroutesAroundDownRouterWestFirst) {
  // Kill the center router (1,1)=5. Every pair the turn model CAN serve
  // must get a route that never enters the dead router and keeps all
  // westward hops as a path prefix (the deadlock-freedom argument). The
  // pairs it cannot serve are exactly the theory's prediction: a source
  // east of the dead router in its row must start its westward chain
  // through it, so destinations at or west of the dead column are lost
  // (N→W and S→W are forbidden — no way back west after a detour).
  NocConfig cfg;
  RouteTable t(cfg, RouteMode::WestFirst);
  HealthMap h(cfg.node_count());
  EXPECT_TRUE(h.mark_router_down(5));
  EXPECT_FALSE(h.mark_router_down(5));  // idempotent
  t.rebuild(h);
  int detours = 0;
  for (int src = 0; src < cfg.node_count(); ++src) {
    for (int dst = 0; dst < cfg.node_count(); ++dst) {
      if (src == 5 || dst == 5 || src == dst) continue;
      const bool blocked_west_chain = cfg.node_y(src) == cfg.node_y(5) &&
                                      cfg.node_x(src) > cfg.node_x(5) &&
                                      cfg.node_x(dst) <= cfg.node_x(5);
      ASSERT_EQ(t.reachable(src, dst), !blocked_west_chain)
          << src << "->" << dst;
      if (!t.reachable(src, dst)) continue;
      int node = src;
      bool left_west = false;
      int hops = 0;
      while (node != dst) {
        const int port = t.next_hop(node, dst);
        ASSERT_NE(port, RouteTable::kUnreachable) << src << "->" << dst;
        ASSERT_NE(port, kLocal) << src << "->" << dst;
        if (port == kWest) {
          ASSERT_FALSE(left_west)
              << "forbidden turn into West on " << src << "->" << dst;
        } else {
          left_west = true;
        }
        node = neighbor_of(cfg, node, port);
        ASSERT_NE(node, -1);
        ASSERT_NE(node, 5) << "route through dead router " << src << "->"
                           << dst;
        ASSERT_LT(++hops, 2 * cfg.node_count()) << "routing loop";
      }
      if (hops > cfg.hops(src, dst)) ++detours;
    }
  }
  EXPECT_GT(detours, 0);  // some survivors really had to route non-minimally
}

TEST(RouteTable, DeadDestinationIsUnreachable) {
  NocConfig cfg;
  RouteTable t(cfg, RouteMode::WestFirst);
  HealthMap h(cfg.node_count());
  h.mark_router_down(5);
  t.rebuild(h);
  for (int src = 0; src < cfg.node_count(); ++src) {
    if (src == 5) continue;
    EXPECT_EQ(t.next_hop(src, 5), RouteTable::kUnreachable) << src;
    EXPECT_FALSE(t.reachable(src, 5)) << src;
  }
  EXPECT_TRUE(t.reachable(5, 5));  // self-delivery never enters the mesh
}

TEST(RouteTable, DeadLinkForcesDetourOverLiveLinks) {
  // Down one eastbound link on the direct row path; routes must detour and
  // never traverse the dead link.
  NocConfig cfg;
  RouteTable t(cfg, RouteMode::WestFirst);
  HealthMap h(cfg.node_count());
  EXPECT_TRUE(h.mark_link_down(1, kEast));  // (1,0) -> (2,0)
  t.rebuild(h);
  int node = 0;
  int hops = 0;
  while (node != 3) {
    const int port = t.next_hop(node, 3);
    ASSERT_NE(port, RouteTable::kUnreachable);
    ASSERT_FALSE(node == 1 && port == kEast) << "routed over the dead link";
    node = neighbor_of(cfg, node, port);
    ASSERT_NE(node, -1);
    ASSERT_LT(++hops, 3 * cfg.node_count());
  }
  EXPECT_GT(hops, 3);  // the detour is non-minimal
}

TEST(Routing, ZeroFaultAdaptiveBitIdenticalToDor) {
  // Network-level version of the free-insurance property: the same traffic
  // under table-driven west-first routing produces bit-identical stats to
  // the DOR baseline, and every resilience counter stays pinned at zero.
  auto run = [](RouteMode mode) {
    NocConfig cfg;
    cfg.resilience.route_mode = mode;
    Network net(cfg);
    net.add_packets(uniform_random_traffic(cfg, 500, 4, 31337));
    net.run_until_drained(1000000);
    net.check_invariants();
    return net.stats();
  };
  const NocStats dor = run(RouteMode::Dor);
  const NocStats wf = run(RouteMode::WestFirst);
  EXPECT_EQ(dor.cycles, wf.cycles);
  EXPECT_EQ(dor.flits_injected, wf.flits_injected);
  EXPECT_EQ(dor.flits_ejected, wf.flits_ejected);
  EXPECT_EQ(dor.link_traversals, wf.link_traversals);
  EXPECT_EQ(dor.router_traversals, wf.router_traversals);
  EXPECT_EQ(dor.buffer_writes, wf.buffer_writes);
  EXPECT_EQ(dor.buffer_reads, wf.buffer_reads);
  EXPECT_EQ(dor.packet_latency.mean(), wf.packet_latency.mean());
  EXPECT_EQ(wf.route_rebuilds, 0u);
  EXPECT_EQ(wf.links_quarantined, 0u);
  EXPECT_EQ(wf.routers_quarantined, 0u);
  EXPECT_EQ(wf.flits_flushed.value(), 0u);
  EXPECT_EQ(wf.packets_rerouted, 0u);
  EXPECT_EQ(wf.packets_undeliverable, 0u);
}

TEST(Routing, AdaptiveDeliversAroundKnownDeadRouter) {
  // One permanent router outage, pre-marked at construction: traffic among
  // the survivors drains normally, with the outage visible in the counters.
  NocConfig cfg;
  cfg.fault.permanent_router_outages = 1;
  cfg.fault.seed = 42;
  cfg.resilience.route_mode = RouteMode::WestFirst;
  const FaultModel fm(cfg.fault, cfg.node_count(), cfg.width);
  ASSERT_EQ(fm.dead_routers().size(), 1u);
  const int dead = fm.dead_routers()[0];

  // Mirror the network's route table to pick survivor pairs the turn model
  // can actually serve (a dead transit router genuinely disconnects some
  // west-chains — see ReroutesAroundDownRouterWestFirst).
  RouteTable table(cfg, RouteMode::WestFirst);
  HealthMap health(cfg.node_count());
  health.mark_router_down(dead);
  table.rebuild(health);

  Network net(cfg);
  std::vector<PacketDescriptor> ps;
  for (int src = 0; src < cfg.node_count(); ++src) {
    for (int dst = 0; dst < cfg.node_count(); ++dst) {
      if (src == dst || src == dead || dst == dead) continue;
      if (!table.reachable(src, dst)) continue;
      const auto flow = stream_flow(src, dst, 8, 4);
      ps.insert(ps.end(), flow.begin(), flow.end());
    }
  }
  net.add_packets(ps);
  net.run_until_drained(1000000);
  const NocStats& st = net.stats();
  EXPECT_EQ(st.flits_ejected, total_flits(ps));
  EXPECT_EQ(st.routers_quarantined, 1u);
  EXPECT_EQ(st.route_rebuilds, 1u);
  EXPECT_EQ(st.packets_undeliverable, 0u);
  net.check_invariants();
}

TEST(Routing, PacketsToDeadRouterAreCountedUndeliverable) {
  NocConfig cfg;
  cfg.fault.permanent_router_outages = 1;
  cfg.fault.seed = 42;
  cfg.resilience.route_mode = RouteMode::WestFirst;
  const FaultModel fm(cfg.fault, cfg.node_count(), cfg.width);
  const int dead = fm.dead_routers()[0];
  const int live_src = dead == 0 ? 1 : 0;
  const int live_dst = dead == 15 ? 14 : 15;

  Network net(cfg);
  const auto doomed = stream_flow(live_src, dead, 40, 4);  // 10 packets
  const auto fine = stream_flow(live_src, live_dst, 40, 4);
  net.add_packets(doomed);
  net.add_packets(fine);
  net.run_until_drained(1000000);
  const NocStats& st = net.stats();
  EXPECT_EQ(st.packets_undeliverable, doomed.size());
  EXPECT_EQ(st.flits_ejected, total_flits(fine));
  net.check_invariants();
}

}  // namespace
}  // namespace nocw::noc
