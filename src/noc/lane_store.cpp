#include "noc/lane_store.hpp"

#include <algorithm>

#include "noc/routing.hpp"

namespace nocw::noc {

LaneStore::LaneStore(const NocConfig& cfg)
    : nodes_(cfg.node_count()),
      vcs_(cfg.virtual_channels > 0 ? cfg.virtual_channels : 1),
      slots_(kNumPorts * vcs_),
      fifos_(static_cast<std::size_t>(nodes_) *
                 static_cast<std::size_t>(slots_),
             static_cast<std::size_t>(cfg.buffer_depth)) {
  // A router's slots fit one 64-bit candidate mask of the switch
  // allocator, and so the byte-wide round-robin pointers and 16-bit lock
  // owners too.
  NOCW_CHECK_LE(cfg.virtual_channels, kMaxVirtualChannels);
  arrived_.assign(fifos_.count(), 0);
  lock_.assign(fifos_.count(), -1);
  rr_.assign(static_cast<std::size_t>(nodes_) * kNumPorts, 0);
  hop_.assign(static_cast<std::size_t>(nodes_) * kNumPorts, Hop{});
  for (int id = 0; id < nodes_; ++id) {
    const int x = cfg.node_x(id);
    const int y = cfg.node_y(id);
    for (int out = 0; out < kNumPorts; ++out) {
      int nx = x, ny = y;
      switch (out) {
        case kNorth: ny = y - 1; break;
        case kSouth: ny = y + 1; break;
        case kEast: nx = x + 1; break;
        case kWest: nx = x - 1; break;
        default: continue;  // kLocal ejects; it feeds no lane
      }
      if (nx < 0 || nx >= cfg.width || ny < 0 || ny >= cfg.height) continue;
      const int next = cfg.node_id(nx, ny);
      hop_[static_cast<std::size_t>(id) * kNumPorts +
           static_cast<std::size_t>(out)] =
          Hop{static_cast<std::int32_t>(lane(next, opposite(out), 0)), next};
    }
  }
  set_routes(cfg, nullptr);
}

void LaneStore::set_routes(const NocConfig& cfg, const RouteTable* table) {
  route_.resize(static_cast<std::size_t>(nodes_) *
                static_cast<std::size_t>(nodes_));
  for (int node = 0; node < nodes_; ++node) {
    for (int dst = 0; dst < nodes_; ++dst) {
      int port = table == nullptr ? dor_next_hop(cfg, node, dst)
                                  : table->next_hop(node, dst);
      if (port == RouteTable::kUnreachable) port = kLocal;
      route_[static_cast<std::size_t>(node) *
                 static_cast<std::size_t>(nodes_) +
             static_cast<std::size_t>(dst)] =
          static_cast<std::uint8_t>(port);
    }
  }
}

std::size_t LaneStore::buffered(int router) const noexcept {
  const auto s = sizes().subspan(lane(router, 0),
                                 static_cast<std::size_t>(slots_));
  std::size_t n = 0;
  for (const std::uint8_t v : s) n += v;
  return n;
}

std::size_t LaneStore::flush() {
  std::size_t flushed = 0;
  for (const std::uint8_t v : sizes()) flushed += v;
  fifos_.clear();
  settle();
  std::fill(lock_.begin(), lock_.end(), std::int16_t{-1});
  return flushed;
}

void LaneStore::check_invariants() const {
  NOCW_CHECK_EQ(lock_.size(), fifos_.count());
  // Checked at cycle boundaries, where every arrival has settled.
  for (const int v : arrived_) NOCW_CHECK_EQ(v, 0);
  // Lane occupancy never exceeds the buffer depth, so the credit count
  // (free slots) stays within [0, depth].
  for (const std::size_t v : sizes()) NOCW_CHECK_LE(v, depth());
  for (const int owner : lock_) {
    NOCW_CHECK_GE(owner, -1);
    NOCW_CHECK_LT(owner, slots_);
  }
  for (const int p : rr_) NOCW_CHECK_LT(p, slots_);
}

}  // namespace nocw::noc
