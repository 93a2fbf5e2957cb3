// Switch allocation for one output port, one slot at a time: the plain
// round-robin walk that the network's candidate-mask allocator
// (Network::switch_router) restructures around per-output bitmasks. Tests
// hold router semantics to it.
#pragma once

#include <cstddef>
#include <optional>

#include "noc/flit.hpp"
#include "noc/lane_store.hpp"

namespace nocw::noc {

/// Choose a slot of `router` whose head flit may traverse to `out` this
/// cycle, honouring the per-(output, VC) wormhole locks with round-robin
/// priority. `can_accept` lets the caller veto candidates whose downstream
/// lane is full, so a back-pressured VC does not stall the whole output
/// while another VC could use it. With virtual_channels = 1 the returned
/// slot equals the input port number.
template <typename Pred>
[[nodiscard]] std::optional<int> allocate_with(const LaneStore& s, int router,
                                               int out, Pred&& can_accept) {
  const std::size_t base = s.lane(router, 0);
  int slot = s.rr_pointer(router, out);
  for (int k = 0; k < s.slots();
       ++k, slot = slot + 1 == s.slots() ? 0 : slot + 1) {
    const std::size_t l = base + static_cast<std::size_t>(slot);
    if (!s.ready(l)) continue;
    const Flit& f = s.front(l);
    if (s.route(router, f.dst) != out) continue;
    const int owner = s.lock_owner(router, out, static_cast<int>(f.vc));
    const bool is_head =
        f.type == FlitType::Head || f.type == FlitType::HeadTail;
    if (!(is_head ? (owner == -1) : (owner == slot))) continue;
    if (!can_accept(f)) continue;
    return slot;
  }
  return std::nullopt;
}

}  // namespace nocw::noc
