// The state of every input-buffered wormhole router of the mesh in one flat
// store. Five physical ports (Local/N/E/S/W) per router, `virtual_channels`
// FIFO lanes per input port: lane = (router * kNumPorts + port) * vcs + vc,
// and a router's slot is its local index port * vcs + vc. A packet's VC is
// fixed at injection and identical at every hop, so per-VC FIFO order holds
// end to end. The wormhole lock is held per (output port, VC): once a Head
// flit of VC v claims an output, only that packet may send VC-v flits there
// until its Tail passes, while packets on other VCs interleave freely on
// the same link. Switch allocation grants at most one flit per output per
// cycle, round-robin over the router's slots; flow control is credit-
// equivalent per lane. With virtual_channels = 1 this is the classic
// single-lane wormhole router. Every per-grant lookup (output port per
// (router, destination), downstream lane per (router, output)) is a table
// built once, and the routes again after every RouteTable rebuild.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "util/check.hpp"
#include "util/ring_buffer.hpp"

namespace nocw::noc {

class RouteTable;

class LaneStore {
 public:
  explicit LaneStore(const NocConfig& cfg);

  [[nodiscard]] int vcs() const noexcept { return vcs_; }
  /// Lanes per router: kNumPorts * vcs.
  [[nodiscard]] int slots() const noexcept { return slots_; }
  [[nodiscard]] int routers() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t depth() const noexcept {
    return fifos_.capacity();
  }

  [[nodiscard]] std::size_t lane(int router, int slot) const noexcept {
    return static_cast<std::size_t>(router) *
               static_cast<std::size_t>(slots_) +
           static_cast<std::size_t>(slot);
  }
  [[nodiscard]] std::size_t lane(int router, int port, int vc) const noexcept {
    return lane(router, port * vcs_ + vc);
  }

  // --- lane FIFOs ---
  [[nodiscard]] bool empty(std::size_t lane) const noexcept {
    return fifos_.empty(lane);
  }
  [[nodiscard]] bool full(std::size_t lane) const noexcept {
    return fifos_.full(lane);
  }
  [[nodiscard]] const Flit& front(std::size_t lane) const {
    return fifos_.front(lane);
  }
  /// Occupancy of every lane, indexed by lane id.
  [[nodiscard]] std::span<const std::uint8_t> sizes() const noexcept {
    return fifos_.sizes();
  }

  // --- this cycle's arrivals ---
  // A flit granted (or injected) this cycle is written straight into its
  // downstream lane, but it must not move again before the next cycle: it
  // counts as arrived until settle(), and allocation only looks at lanes
  // whose front was buffered at the cycle boundary.
  void arrive(std::size_t lane, const Flit& f) {
    fifos_.push(lane, f);
    ++arrived_[lane];
  }
  [[nodiscard]] std::size_t arrived(std::size_t lane) const noexcept {
    return arrived_[lane];
  }
  /// True when the lane's front flit was buffered at the cycle boundary.
  [[nodiscard]] bool ready(std::size_t lane) const noexcept {
    return fifos_.size(lane) > arrived_[lane];
  }
  /// Cycle edge: this cycle's arrivals become ordinary buffered flits.
  void settle() noexcept {
    std::fill(arrived_.begin(), arrived_.end(), std::uint8_t{0});
  }

  // --- per-(router, X) tables ---
  /// Output port at `router` for destination `dst`: the installed
  /// RouteTable's entry when fault-aware routing is active, else
  /// dimension-order (noc/routing's dor_next_hop). An unreachable table
  /// entry maps to kLocal — the network drops undeliverable packets before
  /// injection and flushes in-flight flits before any rebuild, so that
  /// entry never carries traffic.
  [[nodiscard]] int route(int router, int dst) const noexcept {
    return route_[static_cast<std::size_t>(router) *
                      static_cast<std::size_t>(nodes_) +
                  static_cast<std::size_t>(dst)];
  }
  /// Rebuild the output-port table from `table` (nullptr: DOR).
  void set_routes(const NocConfig& cfg, const RouteTable* table);

  /// Lane of VC 0 on the input port that output `out` of `router` feeds,
  /// or -1 for kLocal and mesh edges. VC v's lane is this plus v.
  [[nodiscard]] std::int32_t downstream(int router, int out) const noexcept {
    return hop_[static_cast<std::size_t>(router) * kNumPorts +
                static_cast<std::size_t>(out)]
        .lane;
  }
  /// Router on the far side of link (router, out), or -1.
  [[nodiscard]] int neighbor(int router, int out) const noexcept {
    return hop_[static_cast<std::size_t>(router) * kNumPorts +
                static_cast<std::size_t>(out)]
        .node;
  }

  /// Round-robin priority pointer of an output port: the slot the next
  /// allocation scan starts from.
  [[nodiscard]] int rr_pointer(int router, int out) const noexcept {
    return rr_[static_cast<std::size_t>(router) * kNumPorts +
               static_cast<std::size_t>(out)];
  }
  /// Wormhole lock owner of (output port, VC): the slot holding the lock,
  /// or -1 when the lane is free.
  [[nodiscard]] int lock_owner(int router, int out, int vc) const noexcept {
    return lock_[lane(router, out, vc)];
  }

  /// Commit a grant: pop the head flit of `slot` and update the wormhole
  /// lock of (out, flit.vc). Always inlined: the switch calls this for
  /// every traversal of every cycle.
  [[gnu::always_inline]] Flit grant(int router, int slot, int out) {
    const std::size_t l = lane(router, slot);
    NOCW_CHECK(ready(l));
    const Flit f = fifos_.pop(l);
    std::int16_t& lock = lock_[lane(router, out, static_cast<int>(f.vc))];
    switch (f.type) {
      case FlitType::Head:
        lock = static_cast<std::int16_t>(slot);
        break;
      case FlitType::Tail:
      case FlitType::HeadTail:
        lock = -1;
        break;
      case FlitType::Body:
        break;
    }
    // Rotate priority past the winner on every grant so concurrent packets
    // on different VCs share the physical link fairly (flit-level
    // interleaving).
    rr_[static_cast<std::size_t>(router) * kNumPorts +
        static_cast<std::size_t>(out)] =
        static_cast<std::uint8_t>(slot + 1 == slots_ ? 0 : slot + 1);
    return f;
  }

  /// Flits buffered at `router`, over all its lanes.
  [[nodiscard]] std::size_t buffered(int router) const noexcept;

  /// Drop every buffered flit and release all wormhole locks (quarantine
  /// flush: in-flight wormholes are restarted from their sources after a
  /// route rebuild). Returns the number of flits removed. Round-robin
  /// pointers keep their values — any in-range start is valid.
  std::size_t flush();

  /// Validate structural invariants: lane occupancy within the buffer
  /// depth (equivalently, credit counts in [0, depth]), wormhole lock
  /// owners and round-robin pointers in range. Throws nocw::CheckError on
  /// violation.
  void check_invariants() const;

 private:
  int nodes_;
  int vcs_;
  int slots_;
  RingBuffers<Flit> fifos_;            ///< one FIFO per lane
  std::vector<std::uint8_t> arrived_;  ///< flits arrived this cycle, per lane
  std::vector<std::uint8_t> route_;    ///< [router * nodes + dst] -> port
  struct Hop {
    std::int32_t lane = -1;  ///< downstream lane of VC 0
    std::int32_t node = -1;  ///< downstream router
  };
  std::vector<Hop> hop_;               ///< [router * kNumPorts + out]
  std::vector<std::int16_t> lock_;     ///< per (router, out, VC): slot or -1
  std::vector<std::uint8_t> rr_;       ///< [router * kNumPorts + out]
};

}  // namespace nocw::noc
