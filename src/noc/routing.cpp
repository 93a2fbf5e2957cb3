#include "noc/routing.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace nocw::noc {

int dor_next_hop(const NocConfig& cfg, int node, int dst) noexcept {
  // Dimension-order routing; both orders are deadlock-free on meshes.
  const int x = cfg.node_x(node);
  const int y = cfg.node_y(node);
  const int dx = cfg.node_x(dst);
  const int dy = cfg.node_y(dst);
  if (cfg.routing == Routing::YX) {
    if (dy > y) return kSouth;
    if (dy < y) return kNorth;
    if (dx > x) return kEast;
    if (dx < x) return kWest;
    return kLocal;
  }
  if (dx > x) return kEast;
  if (dx < x) return kWest;
  if (dy > y) return kSouth;
  if (dy < y) return kNorth;
  return kLocal;
}

bool HealthMap::mark_link_down(int router, int port) {
  auto& flag = link_down_[static_cast<std::size_t>(router) * kNumPorts +
                          static_cast<std::size_t>(port)];
  if (flag != 0) return false;
  flag = 1;
  ++links_down_;
  return true;
}

bool HealthMap::mark_router_down(int router) {
  auto& flag = router_down_[static_cast<std::size_t>(router)];
  if (flag != 0) return false;
  flag = 1;
  ++routers_down_;
  return true;
}

RouteTable::RouteTable(const NocConfig& cfg, RouteMode mode)
    : cfg_(cfg), mode_(mode), n_(cfg.node_count()) {
  // The west-first forbidden turns (N→W, S→W) are defined relative to
  // X-first paths; under YX the zero-fault table would *not* equal DOR.
  NOCW_CHECK(mode_ == RouteMode::Dor || cfg_.routing == Routing::XY);
  table_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                static_cast<std::int8_t>(kUnreachable));
  dist_.assign(static_cast<std::size_t>(n_), 0);
  queue_.reserve(static_cast<std::size_t>(n_));
  rebuild(HealthMap(n_));
}

void RouteTable::rebuild(const HealthMap& health) {
  for (int dst = 0; dst < n_; ++dst) build_destination(dst, health);
}

void RouteTable::build_destination(int dst, const HealthMap& health) {
  std::int8_t* row0 = table_.data();
  const auto at = [&](int node) -> std::int8_t& {
    return row0[static_cast<std::size_t>(node) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(dst)];
  };
  for (int u = 0; u < n_; ++u) at(u) = static_cast<std::int8_t>(kUnreachable);
  if (!health.router_up(dst)) return;  // dead destination: nothing routes
  if (mode_ == RouteMode::Dor) {
    for (int u = 0; u < n_; ++u) {
      if (health.router_up(u)) {
        at(u) = static_cast<std::int8_t>(dor_next_hop(cfg_, u, dst));
      }
    }
    return;
  }

  constexpr int kInf = std::numeric_limits<int>::max();
  // Phase A: reverse BFS from dst over live links, travel dirs {E, N, S}
  // only (reverse edge for travel dir d runs from v to its d-opposite
  // neighbour u, i.e. u --d--> v).
  std::fill(dist_.begin(), dist_.end(), kInf);
  dist_[static_cast<std::size_t>(dst)] = 0;
  queue_.clear();
  queue_.push_back(dst);
  constexpr int kForward[] = {kEast, kNorth, kSouth};
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int v = queue_[head];
    const int vx = cfg_.node_x(v);
    const int vy = cfg_.node_y(v);
    for (const int d : kForward) {
      int ux = vx, uy = vy;
      switch (d) {
        case kEast: ux = vx - 1; break;   // u east-hops into v
        case kNorth: uy = vy + 1; break;  // u north-hops into v
        case kSouth: uy = vy - 1; break;  // u south-hops into v
        default: break;
      }
      if (ux < 0 || ux >= cfg_.width || uy < 0 || uy >= cfg_.height) continue;
      const int u = cfg_.node_id(ux, uy);
      if (dist_[static_cast<std::size_t>(u)] != kInf) continue;
      if (!health.router_up(u) || !health.link_up(u, d)) continue;
      dist_[static_cast<std::size_t>(u)] =
          dist_[static_cast<std::size_t>(v)] + 1;
      queue_.push_back(u);
    }
  }
  // Port assignment: shortest-path direction, preferring the XY DOR port on
  // ties (the zero-fault bit-identity guarantee), then fixed E/N/S order.
  for (int u = 0; u < n_; ++u) {
    if (u == dst) {
      at(u) = static_cast<std::int8_t>(kLocal);
      continue;
    }
    const int du = dist_[static_cast<std::size_t>(u)];
    if (du == kInf) continue;  // phase B below
    const int ux = cfg_.node_x(u);
    const int uy = cfg_.node_y(u);
    const int dor = dor_next_hop(cfg_, u, dst);
    int pick = kUnreachable;
    for (const int d : kForward) {
      int vx = ux, vy = uy;
      switch (d) {
        case kEast: vx = ux + 1; break;
        case kNorth: vy = uy - 1; break;
        case kSouth: vy = uy + 1; break;
        default: break;
      }
      if (vx < 0 || vx >= cfg_.width || vy < 0 || vy >= cfg_.height) continue;
      const int v = cfg_.node_id(vx, vy);
      if (dist_[static_cast<std::size_t>(v)] != du - 1) continue;
      if (!health.link_up(u, d)) continue;
      if (d == dor) {
        pick = d;
        break;
      }
      if (pick == kUnreachable) pick = d;
    }
    NOCW_CHECK(pick != kUnreachable);  // BFS reached u through one of these
    at(u) = static_cast<std::int8_t>(pick);
  }
  // Phase B: nodes outside region A route West along a live west chain into
  // it. Columns resolve left to right, so each node's west neighbour is
  // already final when it is examined. Westward travel happens only here —
  // as a path prefix — so the forbidden turns N→W / S→W never occur.
  for (int x = 1; x < cfg_.width; ++x) {
    for (int y = 0; y < cfg_.height; ++y) {
      const int u = cfg_.node_id(x, y);
      if (u == dst || dist_[static_cast<std::size_t>(u)] != kInf) continue;
      if (!health.router_up(u) || !health.link_up(u, kWest)) continue;
      const int w = cfg_.node_id(x - 1, y);
      if (!health.router_up(w)) continue;
      if (at(w) == static_cast<std::int8_t>(kUnreachable)) continue;
      at(u) = static_cast<std::int8_t>(kWest);
    }
  }
}

}  // namespace nocw::noc
