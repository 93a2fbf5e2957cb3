// Online fault escalation and recovery (DESIGN.md §13): stall watchdogs and
// CRC-exhaustion suspicion quarantine broken links/routers mid-run, the
// network flushes and reroutes, and every recovery action is visible in
// typed counters that reconcile with flit conservation. Retransmission under
// permanent outage must terminate — capped backoff, finite retry budget, and
// a typed error instead of a silent hang when the caller opts in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "recorded_stats.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nocw::noc {
namespace {

/// Escalation-ready config: adaptive routing with online discovery only
/// (no outage pre-marking), short watchdog so tests finish fast.
NocConfig escalation_cfg() {
  NocConfig cfg;
  cfg.resilience.route_mode = RouteMode::WestFirst;
  cfg.resilience.assume_known_outages = false;
  cfg.resilience.escalate = true;
  cfg.resilience.stall_threshold_cycles = 64;
  return cfg;
}

TEST(Resilience, EscalationRequiresAdaptiveRouting) {
  NocConfig cfg;
  cfg.resilience.escalate = true;  // Dor + escalate: quarantine verdicts
  EXPECT_THROW(Network{cfg}, CheckError);  // would have nowhere to go
}

TEST(Resilience, WatchdogDiscoversDeadLinkAndRecovers) {
  // A permanent link outage the network was NOT told about: wormholes pile
  // up against it, the stall watchdog quarantines it, the network flushes
  // and reroutes, and the run still drains. Conservation must account for
  // every flushed flit.
  NocConfig cfg = escalation_cfg();
  cfg.fault.permanent_link_outages = 1;
  cfg.fault.seed = 11;
  Network net(cfg);
  const auto ps = uniform_random_traffic(cfg, 300, 4, 99);
  net.add_packets(ps);
  net.run_until_drained(2000000);
  const NocStats& st = net.stats();
  EXPECT_GE(st.links_quarantined + st.routers_quarantined, 1u);
  EXPECT_GE(st.route_rebuilds, 1u);
  EXPECT_GT(st.recovery_cycles.value(), 0u);
  // Flit conservation with recovery: whatever was flushed mid-wormhole is
  // accounted, nothing is double-counted, nothing leaks.
  EXPECT_EQ(st.flits_injected, st.flits_ejected + st.flits_flushed);
  net.check_invariants();
}

TEST(Resilience, WatchdogDiscoversDeadRouterAndRecovers) {
  NocConfig cfg = escalation_cfg();
  cfg.fault.permanent_router_outages = 1;
  cfg.fault.seed = 42;
  const FaultModel fm(cfg.fault, cfg.node_count(), cfg.width);
  const int dead = fm.dead_routers()[0];

  Network net(cfg);
  std::vector<PacketDescriptor> ps;
  for (int src = 0; src < cfg.node_count(); ++src) {
    for (int dst = 0; dst < cfg.node_count(); ++dst) {
      if (src == dst || src == dead || dst == dead) continue;
      const auto flow = stream_flow(src, dst, 12, 4);
      ps.insert(ps.end(), flow.begin(), flow.end());
    }
  }
  net.add_packets(ps);
  net.run_until_drained(2000000);
  const NocStats& st = net.stats();
  // The dead router was discovered online (possibly via its links first);
  // after quarantine the survivors' traffic completes.
  EXPECT_GE(st.links_quarantined + st.routers_quarantined, 1u);
  EXPECT_GE(st.route_rebuilds, 1u);
  EXPECT_EQ(st.flits_injected, st.flits_ejected + st.flits_flushed);
  net.check_invariants();
}

TEST(Resilience, CrcExhaustionEscalatesSuspectPath) {
  // Corruption-only fault (stuck link bits): flits flow but fail CRC at the
  // destination until the retry budget runs out. Each exhausted packet
  // charges a strike to every link on its path; the strikes quarantine the
  // path and the rebuilt table routes later packets around it.
  NocConfig cfg = escalation_cfg();
  cfg.fault.permanent_stuck_links = 2;
  cfg.fault.seed = 3;
  cfg.protection.crc = true;
  cfg.protection.max_retries = 2;
  cfg.protection.retry_backoff_cycles = 2;
  cfg.resilience.retry_suspicion_threshold = 2;
  cfg.resilience.stall_threshold_cycles = 100000;  // isolate the CRC path
  Network net(cfg);
  const auto ps = uniform_random_traffic(cfg, 400, 4, 5);
  net.add_packets(ps);
  net.run_until_drained(2000000);
  const NocStats& st = net.stats();
  EXPECT_GT(st.packets_dropped, 0u);  // exhausted packets fed the suspicion
  EXPECT_GE(st.links_quarantined, 1u);
  EXPECT_GE(st.route_rebuilds, 1u);
  EXPECT_EQ(st.packets_delivered + st.packets_dropped +
                st.packets_undeliverable,
            ps.size());
  net.check_invariants();
}

TEST(Resilience, RetryBackoffIsCappedUnderPermanentOutage) {
  // A packet crossing a stuck link fails CRC on every attempt. With 14
  // retries an uncapped exponential backoff would wait
  // 4 << 14 ≈ 65k cycles before the last attempt alone; the
  // kMaxBackoffShift cap keeps the whole chain under ~25k, so the run must
  // finish inside a budget the uncapped schedule could not meet.
  NocConfig cfg;
  cfg.fault.permanent_stuck_links = 10;
  cfg.fault.seed = 3;
  cfg.protection.crc = true;
  cfg.protection.max_retries = 14;
  cfg.protection.retry_backoff_cycles = 4;
  Network net(cfg);
  const auto ps = uniform_random_traffic(cfg, 100, 4, 77);
  net.add_packets(ps);
  const std::uint64_t cycles = net.run_until_drained(60000);
  EXPECT_LT(cycles, 60000u);
  const NocStats& st = net.stats();
  EXPECT_GT(st.packets_dropped, 0u);  // budget exhausted, not hung
  EXPECT_EQ(st.crc_failures, st.retransmissions + st.packets_dropped);
  net.check_invariants();
}

TEST(Resilience, ExhaustedRetriesThrowTypedErrorWhenOptedIn) {
  NocConfig cfg;
  cfg.fault.permanent_stuck_links = 10;
  cfg.fault.seed = 3;
  cfg.protection.crc = true;
  cfg.protection.max_retries = 1;
  cfg.protection.retry_backoff_cycles = 2;
  cfg.protection.fail_on_drop = true;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 100, 4, 77));
  try {
    net.run_until_drained(400000);
    FAIL() << "expected PacketLossError";
  } catch (const PacketLossError& e) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, cfg.node_count());
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, cfg.node_count());
    EXPECT_NE(std::string(e.what()).find("packet lost"), std::string::npos);
  }
}

TEST(Resilience, CountersStayZeroWithoutAdaptiveRouting) {
  // The resilience machinery must be completely inert when off — the
  // check_invariants pin, asserted here end-to-end.
  NocConfig cfg;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 200, 4, 1));
  net.run_until_drained(1000000);
  const NocStats& st = net.stats();
  EXPECT_EQ(st.route_rebuilds, 0u);
  EXPECT_EQ(st.links_quarantined, 0u);
  EXPECT_EQ(st.routers_quarantined, 0u);
  EXPECT_EQ(st.flits_flushed.value(), 0u);
  EXPECT_EQ(st.packets_rerouted, 0u);
  EXPECT_EQ(st.packets_undeliverable, 0u);
  EXPECT_EQ(st.recovery_cycles.value(), 0u);
  net.check_invariants();
}

NocStats run_escalation() {
  NocConfig cfg = escalation_cfg();
  cfg.fault.permanent_link_outages = 1;
  cfg.fault.seed = 11;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 300, 4, 99));
  net.run_until_drained(2000000);
  net.check_invariants();
  return net.stats();
}

TEST(Resilience, EscalationDeterministicAcrossPoolSizes) {
  // Watchdog verdicts and retry suspicions are applied in one sorted,
  // deduplicated pass at cycle end — the global pool size must not be able
  // to change which entities get quarantined or when. Every pool size must
  // reproduce the stats recorded from the per-cycle reference engine: one
  // link quarantined, 132 flits flushed, 45 packets rerouted.
  const RecordedStats ref = {
      {172, 1282, 1150, 323, 285, 4206, 3056, 4338, 4206, 285, 0, 172, 0, 0,
       0, 0, 285, 0, 0, 1, 1, 0, 132, 45, 15, 64},
      {17575, 61.666666666666671, 1312.5610328638506, 5, 159}};
  const unsigned before = global_thread_count();
  for (const unsigned threads : {1u, 2u, 4u}) {
    set_global_threads(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_recorded(run_escalation(), ref);
  }
  set_global_threads(before);
}

TEST(Resilience, WestFirstAroundKnownOutagesMatchesRecorded) {
  // Known permanent outages, no escalation: the west-first table routes
  // around a dead link and a dead router from cycle 0, packets to or from
  // the dead router are dropped at activation, and the dead router's stall
  // counter ticks every cycle whether or not it holds a flit.
  NocConfig cfg;
  cfg.resilience.route_mode = RouteMode::WestFirst;
  cfg.fault.permanent_link_outages = 2;
  cfg.fault.permanent_router_outages = 1;
  cfg.fault.seed = 5;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 300, 5, 41));
  net.run_until_drained(2000000);
  net.check_invariants();
  const NocStats& st = net.stats();
  EXPECT_EQ(st.links_quarantined, 2u);
  EXPECT_EQ(st.routers_quarantined, 1u);
  EXPECT_GT(st.packets_undeliverable, 0u);
  expect_recorded(st, {{404, 1205, 1205, 241, 241, 4745, 3540, 4745, 4745,
                        241, 0, 808, 404, 0, 0, 0, 241, 0, 0, 1, 2, 1, 0, 0,
                        59, 0},
                       {39110, 162.28215767634853, 11124.278388658369, 6,
                        403}});
}

TEST(Resilience, DrainTimeoutNamesFaultAndRoutingState) {
  // The triage message must carry the active fault + resilience
  // configuration (which links/routers are down is the first thing a drain
  // timeout investigation needs).
  NocConfig cfg;
  cfg.fault.permanent_router_outages = 1;
  cfg.fault.seed = 42;
  cfg.resilience.route_mode = RouteMode::WestFirst;
  const FaultModel fm(cfg.fault, cfg.node_count(), cfg.width);
  const int dead = fm.dead_routers()[0];
  const int live_src = dead == 0 ? 1 : 0;
  Network net(cfg);
  // An endless-enough stream with a 1-cycle budget forces the timeout.
  net.add_packets(stream_flow(live_src, dead == 15 ? 14 : 15, 4000, 4));
  try {
    net.run_until_drained(1);
    FAIL() << "expected drain timeout";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did not drain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead routers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("routing=west_first"), std::string::npos) << msg;
    EXPECT_NE(msg.find("quarantined_routers=1"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace nocw::noc
