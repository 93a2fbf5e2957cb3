// Flit/packet conservation and structural invariants under random traffic.
//
// These tests exercise the contract layer the energy model depends on: if
// the cycle engine ever leaks or duplicates a flit, every back-annotated
// Fig. 2 / Fig. 10 number downstream is wrong.
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/stats.hpp"
#include "noc/traffic.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace nocw::noc {
namespace {

TEST(NocInvariants, HoldEveryCycleUnderRandomTraffic) {
  NocConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.virtual_channels = 2;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 200, 8, /*seed=*/42));

  // Check at every cycle boundary while traffic is in flight, not just
  // after drain: conservation must hold with flits buffered mid-route.
  // run_cycles(1) = one committed cycle plus the engine's own self-check.
  std::uint64_t guard = 0;
  while (!net.drained()) {
    ASSERT_NO_THROW(net.run_cycles(1));
    ASSERT_LT(++guard, 100000u) << "network did not drain";
  }
  EXPECT_EQ(net.stats().flits_injected, net.stats().flits_ejected);
  EXPECT_EQ(net.stats().packets_injected, net.stats().packets_ejected);
}

TEST(NocInvariants, ConservationAfterDrainAcrossConfigs) {
  for (const int vcs : {1, 2, 4}) {
    NocConfig cfg;
    cfg.width = 3;
    cfg.height = 5;
    cfg.buffer_depth = 2;
    cfg.virtual_channels = vcs;
    Network net(cfg);
    net.add_packets(uniform_random_traffic(cfg, 300, 5, /*seed=*/7 + vcs));
    net.run_until_drained(1000000);
    net.check_invariants();
    EXPECT_EQ(net.stats().flits_injected, net.stats().flits_ejected);
    EXPECT_EQ(net.stats().flits_injected.value(), 300u * 5u);
    EXPECT_EQ(net.stats().packet_latency.count(),
              net.stats().packets_ejected);
  }
}

TEST(NocInvariants, RouterChecksPassOnFreshAndDrainedRouters) {
  NocConfig cfg;
  Network net(cfg);
  EXPECT_NO_THROW(net.lanes().check_invariants());
  net.add_packets(uniform_random_traffic(cfg, 50, 4, /*seed=*/3));
  net.run_until_drained(100000);
  EXPECT_NO_THROW(net.lanes().check_invariants());
  for (int id = 0; id < cfg.node_count(); ++id) {
    EXPECT_EQ(net.lanes().buffered(id), 0u);
  }
}

TEST(NocInvariants, DetectSeededCounterDrift) {
  // The checks must actually fire: corrupt one counter the way a silent
  // stats bug would and confirm the violation is caught.
  NocConfig cfg;
  Network net(cfg);
  net.add_packets(uniform_random_traffic(cfg, 20, 4, /*seed=*/11));
  net.run_until_drained(100000);
  net.stats().flits_ejected -= units::Flits{1};
  EXPECT_THROW(net.check_invariants(), CheckError);
}

}  // namespace
}  // namespace nocw::noc
