// Explore the NoC substrate directly: traffic patterns, buffer depths, and
// the latency/throughput behaviour of the 4x4 accelerator mesh.
//
//   $ ./noc_explorer [packets] [flits_per_packet]
//
// Useful when tuning the interconnect independently of any CNN: runs
// uniform-random, hotspot (all-to-one-MI) and the accelerator's
// scatter/gather patterns across buffer depths.
#include <cstdio>
#include <cstdlib>

#include "noc/network.hpp"
#include "noc/traffic.hpp"

namespace {

void run(const char* tag, nocw::noc::Network& net) {
  const auto cycles = net.run_until_drained(10000000);
  const auto& st = net.stats();
  std::printf("  %-22s %8llu cycles  %6.3f flits/cycle  mean pkt latency "
              "%7.1f\n",
              tag, static_cast<unsigned long long>(cycles),
              st.throughput().value(),
              st.packet_latency.mean());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nocw::noc;
  const int packets = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint32_t flits = argc > 2
                                  ? static_cast<std::uint32_t>(
                                        std::atoi(argv[2]))
                                  : 8;

  for (int depth : {2, 4, 8}) {
    NocConfig cfg;
    cfg.buffer_depth = depth;
    std::printf("4x4 mesh, buffer depth %d:\n", depth);
    {
      Network net(cfg);
      net.add_packets(uniform_random_traffic(cfg, packets, flits, 99));
      run("uniform random", net);
    }
    {
      Network net(cfg);
      std::uint64_t volume =
          static_cast<std::uint64_t>(packets) * flits / 15;
      for (int src = 0; src < cfg.node_count(); ++src) {
        if (src == 0) continue;
        net.add_packets(stream_flow(src, 0, volume, flits));
      }
      run("hotspot (to MI 0)", net);
    }
    {
      Network net(cfg);
      const auto pes = cfg.pe_nodes();
      const std::uint64_t volume =
          static_cast<std::uint64_t>(packets) * flits / 4;
      for (int mi : cfg.memory_interface_nodes()) {
        net.add_packets(scatter_flow(mi, pes, volume, 32));
      }
      run("accelerator scatter", net);
    }
    std::printf("\n");
  }
  return 0;
}
