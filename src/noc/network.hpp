// Cycle engine for the mesh: routers + NIs + traffic sources.
//
// One step_cycle() is one clock cycle. All switch decisions in a cycle observe
// the state at the cycle boundary: a granted flit is written straight into
// its downstream lane, but counts as arrived (LaneStore::arrive) and cannot
// move again until the cycle edge, so a flit advances at most one hop per
// cycle and arbitration is order-independent. Downstream capacity is judged
// against a cycle-boundary occupancy snapshot plus this cycle's arrivals
// (credits updated at cycle edges, i.e. one cycle of credit-return latency),
// which makes the switch core independent of router visit order — the
// property the empty-router skip relies on. All router state lives in one
// flat LaneStore. The core is serial by design; NoC parallelism lives at
// sweep level (DESIGN.md §11).
// Sources hold packet descriptors (not expanded flits), so streaming a
// multi-million-flit layer costs O(1) memory per flow.
//
// The run loop is event-driven (DESIGN.md §11): it tracks drain state in
// O(1), skips empty routers inside a cycle, and jumps over fully idle
// stretches to the next source-release event while still firing every
// sampling hook on the interval boundaries it crosses. run_cycles() steps
// every cycle and never jumps, so it is the stepped oracle the jumping loop
// is tested against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "noc/config.hpp"
#include "noc/fault.hpp"
#include "noc/flit.hpp"
#include "noc/lane_store.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace nocw::noc {

/// Thrown by Network::run_until_drained when flits are still undelivered
/// after `max_cycles`: the message names the budget, the active fault
/// configuration and one stuck packet, whose tag tag() carries (0 when no
/// packet could be named).
class DrainTimeoutError : public std::runtime_error {
 public:
  DrainTimeoutError(const std::string& what, std::uint64_t max_cycles,
                    std::uint32_t tag)
      : std::runtime_error(what), max_cycles_(max_cycles), tag_(tag) {}
  /// `inner` with "`context`: " in front of its message.
  DrainTimeoutError(const std::string& context,
                    const DrainTimeoutError& inner);

  [[nodiscard]] std::uint64_t max_cycles() const noexcept {
    return max_cycles_;
  }
  [[nodiscard]] std::uint32_t tag() const noexcept { return tag_; }

 private:
  std::uint64_t max_cycles_;
  std::uint32_t tag_;
};

class Network {
 public:
  explicit Network(const NocConfig& cfg);
  /// Out of line: tearing down every member is too much code to inline
  /// into each function that runs a phase.
  ~Network();
  Network(Network&&) = default;

  const NocConfig& config() const noexcept { return cfg_; }

  /// Queue a packet for injection at its source node. Packets become
  /// eligible at release_cycle and inject one flit per cycle per node.
  void add_packet(const PacketDescriptor& p);
  void add_packets(std::span<const PacketDescriptor> ps);

  /// True when no pending, queued, or in-flight flits remain. O(1): the
  /// sources maintain their queued-flit total and router occupancy equals
  /// flits_injected - flits_ejected (conservation, cross-checked by
  /// check_invariants()). Not noexcept: the checked flit add throws
  /// CheckError on a wrap rather than terminating.
  [[nodiscard]] bool drained() const;

  /// Step until drained, jumping over idle stretches; returns cycles
  /// executed. Throws DrainTimeoutError naming an offending in-flight or
  /// queued packet (source/dest/tag) if max_cycles elapse first (deadlock
  /// guard). On return a full walk confirms nothing is left undelivered.
  std::uint64_t run_until_drained(std::uint64_t max_cycles);

  /// Step exactly `n` cycles, one at a time (no idle jumps).
  void run_cycles(std::uint64_t n);

  [[nodiscard]] const NocStats& stats() const noexcept { return stats_; }
  [[nodiscard]] NocStats& stats() noexcept { return stats_; }
  [[nodiscard]] std::uint64_t cycle() const noexcept {
    return stats_.cycles.value();
  }

  /// Every router's lanes, locks, round-robin pointers and routes.
  [[nodiscard]] const LaneStore& lanes() const noexcept { return lanes_; }

  /// Called for every ejected flit (after stats are updated).
  void set_eject_hook(std::function<void(const Flit&, std::uint64_t)> hook) {
    eject_hook_ = std::move(hook);
  }

  /// Flits not yet delivered (pending + queued + buffered in routers).
  /// Walks the whole network; the run loops use drained() instead.
  [[nodiscard]] std::uint64_t undelivered_flits() const noexcept;

  /// Cycles run_until_drained advanced over without stepping (idle jumps).
  /// Diagnostics only — deliberately not part of NocStats, whose counters
  /// must not depend on whether a stretch was jumped or stepped.
  [[nodiscard]] std::uint64_t idle_cycles_skipped() const noexcept {
    return idle_cycles_skipped_;
  }

  // --- observability (src/obs) ---
  // Per-link and per-node flit counts are always collected (one array
  // increment on paths that already bump several counters).

  /// True iff the tracer's noc category was live at construction; the
  /// accelerator then copies the counts below into its NocObservation.
  [[nodiscard]] bool observing() const noexcept { return trace_noc_; }

  /// Flits sent over each output link, indexed [node * kNumPorts + port].
  [[nodiscard]] std::span<const std::uint64_t> link_flit_counts()
      const noexcept {
    return link_flits_;
  }
  /// Flits ejected at each node's local port.
  [[nodiscard]] std::span<const std::uint64_t> node_eject_counts()
      const noexcept {
    return node_ejects_;
  }

  /// Attach a time-series sink: every `interval_cycles` cycles, the engine
  /// appends the window's flit-injection/ejection/link-traversal deltas and
  /// the instantaneous buffered-flit occupancy to `sink`, stamped on the
  /// inference-global timeline (obs::time_base() + local cycle). Pass
  /// nullptr to detach. Detached cost is one pointer-null branch per cycle
  /// and sampling never mutates engine state, so simulation results are
  /// bit-identical with the sink on or off. An idle jump fires the same
  /// boundary samples as stepping those cycles would (the deltas are zero
  /// then).
  void set_series_sink(obs::TimeSeriesSet* sink,
                       std::uint64_t interval_cycles);

  /// Validate the cycle engine's global invariants: flit conservation
  /// (injected == ejected + buffered in routers), monotone packet counters,
  /// buffer-access accounting, the O(1) drain-tracking counters against a
  /// full network walk, one latency sample per ejected packet, and every
  /// router's structural invariants. Throws nocw::CheckError on violation.
  /// Called every kInvariantCheckInterval cycles by the run loops and from
  /// tests; it observes only committed state, so it is valid at any cycle
  /// boundary.
  void check_invariants() const;

  /// Cycle-batch granularity at which the run loops self-check.
  static constexpr std::uint64_t kInvariantCheckInterval = 1024;

 private:
  struct Source {
    struct Cmp {
      bool operator()(const PacketDescriptor& a,
                      const PacketDescriptor& b) const noexcept {
        return a.release_cycle > b.release_cycle;  // min-heap
      }
    };
    std::priority_queue<PacketDescriptor, std::vector<PacketDescriptor>, Cmp>
        pending;
    // Progress through the packet currently being injected.
    bool active = false;
    PacketDescriptor current{};
    /// The active packet's header fields (id, endpoints, VC, tag), shared
    /// by all of its flits.
    Flit flit{};
    std::size_t lane = 0;  ///< local input lane of the active packet's VC
    std::uint32_t sent = 0;
    std::uint64_t queued_flits = 0;  ///< flits not yet injected at this node
    std::uint32_t crc_accum = 0;     ///< running CRC of the active packet
  };

  /// The switch pass's counters, added to stats_ after the whole pass, so
  /// after its ejections (the eject hook reads stats_). buffer_writes also
  /// counts injections and lands at the cycle edge.
  struct SwitchCtx {
    std::uint64_t buffer_writes = 0;  ///< flits landed in lanes (+ injection)
    std::uint64_t buffer_reads = 0;
    std::uint64_t router_traversals = 0;
    std::uint64_t link_traversals = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t link_fault_cycles = 0;
    std::uint64_t bit_flips = 0;
    void clear() noexcept {
      buffer_writes = buffer_reads = router_traversals = link_traversals = 0;
      stall_cycles = link_fault_cycles = bit_flips = 0;
    }
  };

  void inject_phase();
  /// Snapshot per-lane occupancy at the cycle boundary; the switch's
  /// capacity predicate reads only this.
  void snapshot_occupancy();
  /// Switch allocation + grants for every router, in router-id order:
  /// traversals arrive in their downstream lanes, ejections fire inline,
  /// counters go to ctx_.
  void switch_phase();
  /// Fault checks of one router for this cycle, before its first grant:
  /// counts a stall or each down output link, feeds the stall watchdogs
  /// (`occupied`: the router held a flit at the cycle boundary), and
  /// returns the outputs that may not allocate — all of them for a stalled
  /// router; ejection is otherwise never blocked.
  unsigned fault_blocked_outputs(int rid, bool occupied);
  /// Candidate-mask allocation for one router, over every output not in
  /// `blocked`: per output, a round-robin scan over the set bits of a
  /// bitmask of the router's slots whose head flit routes there.
  [[gnu::always_inline]] void switch_router(int rid, unsigned blocked);
  /// Write a granted or injected flit into `lane` of `router`; an arrival
  /// into an empty lane becomes its (fresh) head.
  void land(std::size_t lane, int router, const Flit& f);
  /// Advance one clock cycle through the shared core: snapshot, switch
  /// (ejecting inline), count, inject, deliver, escalate, sample. The only
  /// stepper; callers drive the network through run_until_drained() /
  /// run_cycles().
  void step_cycle();
  /// True when stepping the current cycle would change nothing but the
  /// cycle counter: nothing buffered, no source mid-packet, faults off.
  [[nodiscard]] bool idle_now() const;
  /// Earliest release cycle over all pending packets (UINT64_MAX if none).
  [[nodiscard]] std::uint64_t next_source_release() const noexcept;
  /// Jump the clock to `target`, emitting the time-series samples that
  /// stepping would have produced on every interval boundary in
  /// (current, target].
  void advance_idle(std::uint64_t target);
  [[noreturn]] void throw_drain_timeout(std::uint64_t max_cycles) const;
  void eject_flit(const Flit& f, int node);
  void queue_packet(const PacketDescriptor& p);
  /// True when a packet from `src` can currently be delivered to `dst`
  /// (both routers live, route exists). Always true when not adaptive.
  [[nodiscard]] bool deliverable(int src, int dst) const noexcept;
  /// CRC-exhaustion escalation: a packet burned its whole retry budget, so
  /// every link on its current route grows one suspicion point; links that
  /// reach retry_suspicion_threshold are queued for quarantine.
  void suspect_path(const PacketDescriptor& d);
  /// End-of-cycle escalation: take this cycle's watchdog verdicts and
  /// suspicion queue, mark new casualties in the health map, flush, requeue
  /// and rebuild.
  void process_escalations();
  /// Drop every buffered flit network-wide, cancel mid-injection sources,
  /// and requeue the affected packets (in packet-id order) for a fresh
  /// attempt over the rebuilt routes.
  void quarantine_flush();
  /// Requeue `d` for reinjection if a live route still exists, else count
  /// it undeliverable.
  void requeue_or_drop(PacketDescriptor d);
  /// Flits buffered in every lane of the mesh.
  [[nodiscard]] std::uint64_t buffered_flits() const noexcept;
  void sample_series();
  /// Flits a descriptor expands to at injection (+1 CRC flit if protected).
  [[nodiscard]] std::uint64_t flits_of(const PacketDescriptor& p)
      const noexcept {
    return p.size_flits + (protect_ ? 1u : 0u);
  }

  NocConfig cfg_;
  LaneStore lanes_;
  std::vector<Source> sources_;
  NocStats stats_;
  FaultModel fault_;
  bool protect_ = false;       ///< cfg_.protection.crc
  bool carry_payload_ = false; ///< faults or protection active

  // --- resilience (DESIGN.md §13) ---
  bool adaptive_ = false;        ///< cfg_.resilience.adaptive()
  bool escalate_ = false;        ///< cfg_.resilience.escalate
  /// inflight_ is maintained when either CRC protection (NACK requeue) or
  /// escalation (quarantine-flush requeue) needs the original descriptors.
  bool track_inflight_ = false;
  HealthMap health_;
  std::unique_ptr<RouteTable> route_table_;  ///< null unless adaptive_
  /// Consecutive blocked-while-occupied cycles per link / router; crossing
  /// cfg_.resilience.stall_threshold_cycles escalates to quarantine.
  std::vector<std::uint32_t> link_streak_;    ///< [node * kNumPorts + port]
  std::vector<std::uint32_t> router_streak_;  ///< per router
  /// Retry-exhaustion suspicion points per link (see suspect_path).
  std::vector<std::uint32_t> link_suspicion_;
  /// Links (flattened ids) fingered this cycle by the stall watchdog or
  /// suspect_path, and routers fingered by the watchdog; quarantined at
  /// cycle end.
  std::vector<int> pending_down_links_;
  std::vector<int> pending_down_routers_;

  /// Packets in flight: packet id → original descriptor (attempt count
  /// included), so a CRC failure at ejection — or a quarantine flush — can
  /// requeue it. Maintained iff track_inflight_.
  std::unordered_map<std::uint32_t, PacketDescriptor> inflight_;
  /// Ejection-side running CRC per in-flight packet id.
  std::unordered_map<std::uint32_t, std::uint32_t> eject_crc_;
  /// Cycle-boundary occupancy snapshot per lane.
  std::vector<std::uint8_t> occ_;
  /// The switch pass's counters; persistent so per-cycle stepping does not
  /// allocate.
  SwitchCtx ctx_;
  /// Live occupied-slot bitmask per router (bit = slot = port * vcs + vc),
  /// updated on every push/pop; kMaxVirtualChannels keeps a router's slots
  /// within one word.
  std::vector<std::uint64_t> occ_mask_;
  /// Per router, the slots whose head flit arrived this cycle and so may
  /// not move before the next one; cleared at every cycle edge.
  std::vector<std::uint64_t> fresh_mask_;
  /// Cached output port of each lane's head flit (valid where the
  /// occupancy bit is set; heads change only on push-to-empty and pop, and
  /// routes only after a flush has emptied every lane).
  std::vector<std::uint8_t> head_out_;
  std::uint32_t next_packet_id_ = 1;
  std::function<void(const Flit&, std::uint64_t)> eject_hook_;

  // O(1) drain tracking (cross-checked by check_invariants).
  std::uint64_t queued_total_ = 0;  ///< sum of sources' queued_flits
  int active_sources_ = 0;          ///< sources mid-packet
  std::uint64_t idle_cycles_skipped_ = 0;

  // Observability. trace_noc_ caches the tracer gate at construction so the
  // per-hop emission check is one branch on a plain bool; link/eject counts
  // are unconditional (they back the utilization invariants below).
  bool trace_noc_ = false;
  std::uint64_t trace_sample_ = 1;  ///< emit every Nth hop event
  std::uint64_t hop_seq_ = 0;       ///< hops seen, for sampling
  std::vector<std::uint64_t> link_flits_;   ///< [node * kNumPorts + port]
  std::vector<std::uint64_t> node_ejects_;  ///< per node

  // Time-series sink (null = detached). Window deltas are reconstructed
  // from the always-on cumulative counters, so sampling reads committed
  // state only.
  obs::TimeSeriesSet* series_ = nullptr;
  std::uint64_t series_interval_cycles_ = 0;
  std::uint64_t series_prev_injected_ = 0;
  std::uint64_t series_prev_ejected_ = 0;
  std::uint64_t series_prev_links_ = 0;
  std::uint64_t series_prev_rerouted_ = 0;
};

}  // namespace nocw::noc
