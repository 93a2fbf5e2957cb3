#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace nocw::noc {

Network::Network(const NocConfig& cfg)
    : cfg_(cfg), lanes_(cfg), fault_(cfg.fault, cfg.node_count(), cfg.width),
      health_(cfg.node_count()) {
  protect_ = cfg_.protection.crc;
  carry_payload_ = protect_ || fault_.enabled();
  adaptive_ = cfg_.resilience.adaptive();
  escalate_ = cfg_.resilience.escalate;
  // Escalation rides on the adaptive machinery (health map, rebuilds);
  // without it a quarantine verdict would have nowhere to go.
  NOCW_CHECK(!escalate_ || adaptive_);
  track_inflight_ = protect_ || escalate_;
  NOCW_CHECK_GE(cfg_.protection.max_retries, 0);
  NOCW_CHECK_GE(cfg_.resilience.stall_threshold_cycles, std::uint64_t{1});
  NOCW_CHECK_GE(cfg_.resilience.retry_suspicion_threshold, 1);
  sources_.resize(static_cast<std::size_t>(cfg_.node_count()));
  const std::size_t lanes_total = lanes_.sizes().size();
  occ_.resize(lanes_total, 0);
  link_flits_.resize(
      static_cast<std::size_t>(cfg_.node_count()) * kNumPorts, 0);
  node_ejects_.resize(static_cast<std::size_t>(cfg_.node_count()), 0);
  trace_noc_ = NOCW_TRACE_ON(obs::kCatNoc);
  trace_sample_ = obs::Tracer::sample_every();
  if (trace_sample_ == 0) trace_sample_ = 1;
  occ_mask_.assign(static_cast<std::size_t>(cfg_.node_count()), 0);
  fresh_mask_.assign(static_cast<std::size_t>(cfg_.node_count()), 0);
  head_out_.assign(lanes_total, 0);
  if (adaptive_) {
    route_table_ =
        std::make_unique<RouteTable>(cfg_, cfg_.resilience.route_mode);
    lanes_.set_routes(cfg_, route_table_.get());
    if (escalate_) {
      link_streak_.assign(
          static_cast<std::size_t>(cfg_.node_count()) * kNumPorts, 0);
      router_streak_.assign(static_cast<std::size_t>(cfg_.node_count()), 0);
      link_suspicion_.assign(
          static_cast<std::size_t>(cfg_.node_count()) * kNumPorts, 0);
    }
    if (cfg_.resilience.assume_known_outages &&
        (!fault_.dead_links().empty() || !fault_.dead_routers().empty())) {
      // Known permanent outages are quarantined before the first packet:
      // no detection latency, no recovery_cycles charged.
      for (const int link : fault_.dead_links()) {
        if (health_.mark_link_down(link / kNumPorts, link % kNumPorts)) {
          ++stats_.links_quarantined;
        }
      }
      for (const int rid : fault_.dead_routers()) {
        if (health_.mark_router_down(rid)) ++stats_.routers_quarantined;
      }
      route_table_->rebuild(health_);
      lanes_.set_routes(cfg_, route_table_.get());
      ++stats_.route_rebuilds;
    }
  }
}

Network::~Network() = default;

void Network::add_packet(const PacketDescriptor& p) {
  if (p.src >= cfg_.node_count() || p.dst >= cfg_.node_count()) {
    throw std::invalid_argument("packet endpoint out of range");
  }
  if (p.size_flits == 0) throw std::invalid_argument("empty packet");
  queue_packet(p);
}

void Network::queue_packet(const PacketDescriptor& p) {
  auto& s = sources_[p.src];
  s.pending.push(p);
  s.queued_flits += flits_of(p);
  queued_total_ += flits_of(p);
}

void Network::add_packets(std::span<const PacketDescriptor> ps) {
  for (const auto& p : ps) add_packet(p);
}

void Network::inject_phase() {
  // Nothing queued anywhere (including the un-sent tail of any active
  // packet) means no source can inject this cycle.
  if (queued_total_ == 0) return;
  for (int node = 0; node < cfg_.node_count(); ++node) {
    auto& s = sources_[static_cast<std::size_t>(node)];
    if (!s.active) {
      // Drop packets with no live route at activation time (dead source or
      // destination router, or a mesh that dead routers have split in two)
      // instead of injecting flits that could never eject — graceful
      // degradation over deadlock.
      while (adaptive_ && !s.pending.empty() &&
             s.pending.top().release_cycle <= stats_.cycles.value() &&
             !deliverable(node, s.pending.top().dst)) {
        const std::uint64_t fl = flits_of(s.pending.top());
        s.pending.pop();
        s.queued_flits -= fl;
        queued_total_ -= fl;
        ++stats_.packets_undeliverable;
      }
      if (s.pending.empty() ||
          s.pending.top().release_cycle > stats_.cycles.value()) {
        continue;
      }
      s.current = s.pending.top();
      s.pending.pop();
      s.active = true;
      ++active_sources_;
      s.sent = 0;
      s.crc_accum = kCrcInit;
      // Every flit of the packet carries the same header fields; only the
      // type and payload vary per flit.
      Flit& h = s.flit;
      h.packet_id = next_packet_id_++;
      h.src = s.current.src;
      h.dst = s.current.dst;
      h.vc = static_cast<std::uint8_t>(
          h.packet_id % static_cast<std::uint32_t>(lanes_.vcs()));
      h.inject_cycle = static_cast<std::uint32_t>(s.current.release_cycle);
      h.tag = s.current.tag;
      s.lane = lanes_.lane(node, kLocal, h.vc);
      if (track_inflight_) inflight_.emplace(h.packet_id, s.current);
    }
    if (lanes_.full(s.lane)) continue;

    const auto size = static_cast<std::uint32_t>(flits_of(s.current));
    Flit f = s.flit;
    const bool first = (s.sent == 0);
    const bool last = (s.sent + 1 == size);
    f.type = first && last ? FlitType::HeadTail
             : first       ? FlitType::Head
             : last        ? FlitType::Tail
                           : FlitType::Body;
    if (carry_payload_) {
      const bool crc_flit = protect_ && last;
      if (crc_flit) {
        f.payload = s.crc_accum;
        ++stats_.crc_flits_injected;
      } else {
        f.payload = synth_payload(f.packet_id, s.sent);
        if (protect_) s.crc_accum = crc32_word(s.crc_accum, f.payload);
      }
      if (protect_) ++stats_.crc_flit_events;  // CRC generator work
    }
    land(s.lane, node, f);
    ++s.sent;
    --s.queued_flits;
    --queued_total_;
    ++stats_.flits_injected;
    if (first) {
      ++stats_.packets_injected;
      if (trace_noc_) {
        obs::Tracer::global().record_instant(
            obs::kCatNoc, "inject", obs::kPidNoc,
            static_cast<std::uint32_t>(node), stats_.cycles.value(), "dst",
            static_cast<double>(s.current.dst));
      }
    }
    if (last) {
      s.active = false;
      --active_sources_;
    }
  }
}

void Network::eject_flit(const Flit& f, int node) {
  ++stats_.buffer_reads;
  ++stats_.router_traversals;
  ++stats_.flits_ejected;
  ++node_ejects_[static_cast<std::size_t>(node)];
  if (protect_) ++stats_.crc_flit_events;  // CRC checker work
  const bool tail =
      f.type == FlitType::Tail || f.type == FlitType::HeadTail;
  if (!tail) {
    if (protect_) {
      const auto it = eject_crc_.find(f.packet_id);
      const std::uint32_t crc = it == eject_crc_.end() ? kCrcInit : it->second;
      eject_crc_[f.packet_id] = crc32_word(crc, f.payload);
    }
    if (eject_hook_) eject_hook_(f, stats_.cycles.value());
    return;
  }
  ++stats_.packets_ejected;
  const double latency =
      static_cast<double>(stats_.cycles.value() - f.inject_cycle);
  stats_.packet_latency.add(latency);
  if (trace_noc_) {
    obs::Tracer::global().record_instant(
        obs::kCatNoc, "eject", obs::kPidNoc, static_cast<std::uint32_t>(node),
        stats_.cycles.value(), "latency_cycles", latency);
  }
  if (!protect_) {
    ++stats_.packets_delivered;
    if (track_inflight_) inflight_.erase(f.packet_id);
    if (eject_hook_) eject_hook_(f, stats_.cycles.value());
    return;
  }
  // The tail is the CRC flit: compare against the CRC accumulated over the
  // packet's data payloads (wormhole delivery preserves flit order).
  std::uint32_t crc = kCrcInit;
  if (const auto it = eject_crc_.find(f.packet_id); it != eject_crc_.end()) {
    crc = it->second;
    eject_crc_.erase(it);
  }
  const auto pit = inflight_.find(f.packet_id);
  NOCW_CHECK(pit != inflight_.end());
  if (crc == static_cast<std::uint32_t>(f.payload)) {
    ++stats_.packets_delivered;
    inflight_.erase(pit);
  } else {
    // NACK path: requeue the original descriptor with exponential backoff,
    // or drop once the retry budget is exhausted.
    ++stats_.crc_failures;
    PacketDescriptor d = pit->second;
    inflight_.erase(pit);
    if (d.attempt < cfg_.protection.max_retries) {
      const unsigned shift = std::min<unsigned>(
          static_cast<unsigned>(d.attempt), ProtectionConfig::kMaxBackoffShift);
      d.release_cycle = stats_.cycles.value() +
                        (cfg_.protection.retry_backoff_cycles << shift);
      ++d.attempt;
      ++stats_.retransmissions;
      if (trace_noc_) {
        obs::Tracer::global().record_instant(
            obs::kCatNoc, "retransmit", obs::kPidNoc,
            static_cast<std::uint32_t>(node), stats_.cycles.value(), "attempt",
            static_cast<double>(d.attempt));
      }
      queue_packet(d);
    } else {
      ++stats_.packets_dropped;
      if (trace_noc_) {
        obs::Tracer::global().record_instant(
            obs::kCatNoc, "drop", obs::kPidNoc,
            static_cast<std::uint32_t>(node), stats_.cycles.value(), "attempt",
            static_cast<double>(d.attempt));
      }
      // A whole retry budget burned on one flow is strong evidence of a
      // hard fault somewhere on its path; let the escalation layer point
      // the finger before (optionally) failing loudly.
      if (escalate_) suspect_path(d);
      if (cfg_.protection.fail_on_drop) {
        std::ostringstream oss;
        oss << "packet lost after " << d.attempt + 1 << " attempts (src "
            << d.src << " -> dst " << d.dst << ", tag " << d.tag << ")";
        throw PacketLossError(oss.str(), d.src, d.dst, d.tag);
      }
    }
  }
  if (eject_hook_) eject_hook_(f, stats_.cycles.value());
}

bool Network::deliverable(int src, int dst) const noexcept {
  if (!adaptive_) return true;
  return health_.router_up(src) && health_.router_up(dst) &&
         route_table_->reachable(src, dst);
}

void Network::suspect_path(const PacketDescriptor& d) {
  // Walk the packet's current route (the one its retries kept failing on)
  // and charge every link one suspicion point. Runs on the commit path, in
  // router-id order.
  int node = d.src;
  for (int hop = 0; hop < cfg_.node_count() && node != d.dst; ++hop) {
    const int port = route_table_->next_hop(node, d.dst);
    if (port == RouteTable::kUnreachable || port == kLocal) break;
    const std::size_t link = static_cast<std::size_t>(node) * kNumPorts +
                             static_cast<std::size_t>(port);
    if (health_.link_up(node, port) &&
        ++link_suspicion_[link] ==
            static_cast<std::uint32_t>(
                cfg_.resilience.retry_suspicion_threshold)) {
      pending_down_links_.push_back(static_cast<int>(link));
    }
    const int next = lanes_.neighbor(node, port);
    if (next < 0) break;
    node = next;
  }
}

void Network::snapshot_occupancy() {
  // The lane sizes are the occupancy state: freezing the cycle-boundary
  // view is one copy.
  const auto sizes = lanes_.sizes();
  std::copy(sizes.begin(), sizes.end(), occ_.begin());
}

void Network::land(std::size_t lane, int router, const Flit& f) {
  if (lanes_.empty(lane)) {
    // The flit becomes its lane's head, but moves no further this cycle:
    // record its occupancy bit, its fresh bit and its cached route.
    const std::uint64_t bit = std::uint64_t{1}
                              << (lane - lanes_.lane(router, 0));
    occ_mask_[static_cast<std::size_t>(router)] |= bit;
    fresh_mask_[static_cast<std::size_t>(router)] |= bit;
    head_out_[lane] = static_cast<std::uint8_t>(lanes_.route(router, f.dst));
  }
  lanes_.arrive(lane, f);
  ++ctx_.buffer_writes;
}

unsigned Network::fault_blocked_outputs(int rid, bool occupied) {
  const std::uint64_t now = stats_.cycles.value();
  const auto r = static_cast<std::size_t>(rid);
  const auto threshold =
      static_cast<std::uint32_t>(cfg_.resilience.stall_threshold_cycles);
  if (fault_.router_stalled(now, rid)) {
    ++ctx_.stall_cycles;
    // Stall watchdog: consecutive stalled-while-occupied cycles.
    if (escalate_ && health_.router_up(rid) && occupied &&
        ++router_streak_[r] == threshold) {
      pending_down_routers_.push_back(rid);
    }
    return (1u << kNumPorts) - 1;  // control-path glitch: no port allocates
  }
  if (escalate_) router_streak_[r] = 0;
  // The NI always sinks one flit per cycle, so ejection is never blocked.
  unsigned blocked = 0;
  for (int out = kLocal + 1; out < kNumPorts; ++out) {
    const std::size_t link = r * kNumPorts + static_cast<std::size_t>(out);
    if (!fault_.link_down(now, rid, out)) {
      if (escalate_) link_streak_[link] = 0;
      continue;
    }
    // Transient outage: flits stay buffered and retry next cycle.
    ++ctx_.link_fault_cycles;
    blocked |= 1u << out;
    if (escalate_ && health_.link_up(rid, out) &&
        lanes_.downstream(rid, out) >= 0 && occupied &&
        ++link_streak_[link] == threshold) {
      pending_down_links_.push_back(static_cast<int>(link));
    }
  }
  return blocked;
}

inline void Network::switch_router(int rid, unsigned blocked) {
  const std::size_t base = lanes_.lane(rid, 0);
  // Per output port, a bitmask of the router's slots whose head flit was
  // buffered at the cycle boundary and routes there, assembled from the
  // incrementally-maintained occupancy masks and cached head routes; `outs`
  // marks the unblocked outputs with any candidate. The per-output
  // round-robin scan then walks set bits instead of re-reading every lane —
  // state only changes through grants, and each grant refreshes the one
  // slot it popped, so the masks stay exact for the outputs still to come.
  std::uint64_t cand[kNumPorts] = {};
  unsigned outs = 0;
  for (std::uint64_t occ = occ_mask_[static_cast<std::size_t>(rid)] &
                           ~fresh_mask_[static_cast<std::size_t>(rid)];
       occ != 0; occ &= occ - 1) {
    const int slot = std::countr_zero(occ);
    const int out = head_out_[base + static_cast<std::size_t>(slot)];
    cand[out] |= std::uint64_t{1} << slot;
    outs |= 1u << out;
  }
  outs &= ~blocked;
  const std::size_t depth = lanes_.depth();
  for (; outs != 0; outs &= outs - 1) {
    const int out = std::countr_zero(outs);
    std::uint64_t m = cand[out];
    const std::int32_t down = lanes_.downstream(rid, out);
    const int start = lanes_.rr_pointer(rid, out);
    while (m != 0) {
      // Round-robin pick: lowest set bit at/after `start`, wrapping. A
      // veto (wormhole lock, downstream capacity) clears the bit and the
      // scan resumes in the same order. Capacity is judged against the
      // cycle-boundary snapshot plus this cycle's arrivals — credits return
      // at cycle edges, so the decision is independent of router visit
      // order and a back-pressured VC never stalls the others.
      const std::uint64_t ahead = m & (~std::uint64_t{0} << start);
      const int slot = std::countr_zero(ahead != 0 ? ahead : m);
      const std::size_t lane = base + static_cast<std::size_t>(slot);
      const Flit& f = lanes_.front(lane);
      const bool is_head =
          f.type == FlitType::Head || f.type == FlitType::HeadTail;
      const int owner = lanes_.lock_owner(rid, out, static_cast<int>(f.vc));
      bool ok = is_head ? owner == -1 : owner == slot;
      std::size_t idx = 0;
      if (ok && out != kLocal) {
        idx = static_cast<std::size_t>(down) + f.vc;
        ok = depth > occ_[idx] + lanes_.arrived(idx);
      }
      if (!ok) {
        m &= ~(std::uint64_t{1} << slot);
        continue;
      }
      Flit g = lanes_.grant(rid, slot, out);
      if (out == kLocal) {
        // Routers switch in id order and ejection touches nothing the
        // switch reads, so side effects fire in router-id order.
        eject_flit(g, rid);
      } else {
        if (fault_.enabled()) {
          ctx_.bit_flips += static_cast<std::uint64_t>(fault_.corrupt_payload(
              g.payload, stats_.cycles.value(), rid, out));
        }
        land(idx, lanes_.neighbor(rid, out), g);
        ++ctx_.buffer_reads;
        ++ctx_.router_traversals;
        ++ctx_.link_traversals;
        ++link_flits_[static_cast<std::size_t>(rid) * kNumPorts +
                      static_cast<std::size_t>(out)];
        if (trace_noc_ && hop_seq_++ % trace_sample_ == 0) {
          obs::Tracer::global().record_instant(
              obs::kCatNoc, "hop", obs::kPidNoc,
              static_cast<std::uint32_t>(rid), stats_.cycles.value(), "dst",
              static_cast<double>(g.dst));
        }
      }
      // The pop may expose a new head; refresh the slot's cached route and
      // its candidacy for the unblocked outputs still to come (at most one
      // grant per output per cycle). A head that arrived this cycle waits
      // for the next one.
      const std::uint64_t bit = std::uint64_t{1} << slot;
      cand[out] &= ~bit;
      if (lanes_.empty(lane)) {
        occ_mask_[static_cast<std::size_t>(rid)] &= ~bit;
      } else {
        const int nout = lanes_.route(rid, lanes_.front(lane).dst);
        head_out_[lane] = static_cast<std::uint8_t>(nout);
        if (lanes_.ready(lane)) {
          cand[nout] |= bit;
          outs |= (1u << nout) & ~((2u << out) - 1) & ~blocked;
        } else {
          fresh_mask_[static_cast<std::size_t>(rid)] |= bit;
        }
      }
      break;
    }
  }
}

void Network::switch_phase() {
  // A router holding no flit from before this cycle has no candidate, so
  // fault-free runs skip it. Under faults every router is visited: its
  // stall and link-fault counters tick whether or not it holds a flit. The
  // occupancy test reads the masks before the router's first grant, when
  // they still hold the cycle-boundary view (other routers' grants into
  // this one are all fresh).
  const int n = cfg_.node_count();
  const bool faulty = fault_.enabled();
  for (int rid = 0; rid < n; ++rid) {
    const auto r = static_cast<std::size_t>(rid);
    const bool occupied = (occ_mask_[r] & ~fresh_mask_[r]) != 0;
    const unsigned blocked =
        faulty ? fault_blocked_outputs(rid, occupied) : 0u;
    if (occupied) switch_router(rid, blocked);
  }
}

void Network::step_cycle() {
  ctx_.clear();
  snapshot_occupancy();
  switch_phase();
  // The pass's counters land after its ejections (the eject hook reads
  // stats_).
  stats_.buffer_reads += ctx_.buffer_reads;
  stats_.router_traversals += ctx_.router_traversals;
  stats_.link_traversals += ctx_.link_traversals;
  stats_.router_stall_cycles += units::Cycles{ctx_.stall_cycles};
  stats_.link_fault_cycles += units::Cycles{ctx_.link_fault_cycles};
  stats_.payload_bit_flips += ctx_.bit_flips;
  inject_phase();
  // Cycle edge: this cycle's arrivals settle into their lanes and may move
  // next cycle. Each lane receives at most one flit per cycle — one
  // upstream link per input port plus local-only injection.
  stats_.buffer_writes += ctx_.buffer_writes;
  lanes_.settle();
  std::fill(fresh_mask_.begin(), fresh_mask_.end(), std::uint64_t{0});
  if (escalate_) process_escalations();
  ++stats_.cycles;
  if (series_ != nullptr &&
      stats_.cycles.value() % series_interval_cycles_ == 0) {
    sample_series();
  }
}

void Network::process_escalations() {
  auto& links = pending_down_links_;
  auto& routers = pending_down_routers_;
  if (links.empty() && routers.empty()) return;
  // Sorting (and deduplicating) makes the apply order a function of the
  // entity ids alone, whichever of the watchdog and suspect_path raised
  // them first.
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
  std::uint64_t newly_marked = 0;
  for (const int link : links) {
    if (health_.mark_link_down(link / kNumPorts, link % kNumPorts)) {
      ++stats_.links_quarantined;
      ++newly_marked;
    }
  }
  for (const int rid : routers) {
    if (health_.mark_router_down(rid)) {
      ++stats_.routers_quarantined;
      ++newly_marked;
    }
  }
  links.clear();
  routers.clear();
  if (newly_marked == 0) return;
  // Each escalation spent one detection window stalled before the verdict.
  stats_.recovery_cycles +=
      units::Cycles{cfg_.resilience.stall_threshold_cycles * newly_marked};
  quarantine_flush();
  route_table_->rebuild(health_);
  lanes_.set_routes(cfg_, route_table_.get());
  ++stats_.route_rebuilds;
}

void Network::quarantine_flush() {
  // Mid-flight wormholes cannot survive a route change (body flits must
  // follow their head's path), so the recovery story is restart-from-
  // source: drop everything buffered, cancel mid-injection sources, and
  // requeue every affected packet from its original descriptor.
  stats_.flits_flushed += units::Flits{lanes_.flush()};
  std::fill(occ_mask_.begin(), occ_mask_.end(), std::uint64_t{0});
  for (auto& s : sources_) {
    if (!s.active) continue;
    const std::uint64_t remaining =
        static_cast<std::uint64_t>(flits_of(s.current)) - s.sent;
    s.queued_flits -= remaining;
    queued_total_ -= remaining;
    s.active = false;
    --active_sources_;
    // The descriptor is requeued through the inflight_ sweep below
    // (track_inflight_ always holds here: escalation implies it).
  }
  eject_crc_.clear();
  if (!track_inflight_) return;
  std::vector<std::pair<std::uint32_t, PacketDescriptor>> flow(
      inflight_.begin(), inflight_.end());
  inflight_.clear();
  std::sort(flow.begin(), flow.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, d] : flow) requeue_or_drop(d);
}

void Network::requeue_or_drop(PacketDescriptor d) {
  if (!deliverable(d.src, d.dst)) {
    ++stats_.packets_undeliverable;
    return;
  }
  d.release_cycle = stats_.cycles.value() + 1;
  queue_packet(d);
  ++stats_.packets_rerouted;
}

void Network::set_series_sink(obs::TimeSeriesSet* sink,
                              std::uint64_t interval_cycles) {
  NOCW_CHECK_GE(interval_cycles, std::uint64_t{1});
  series_ = sink;
  series_interval_cycles_ = interval_cycles;
  series_prev_injected_ = stats_.flits_injected.value();
  series_prev_ejected_ = stats_.flits_ejected.value();
  series_prev_links_ = stats_.link_traversals;
  series_prev_rerouted_ = stats_.packets_rerouted;
}

void Network::sample_series() {
  // Stamp on the inference-global timeline; the accelerator sets the
  // thread-local base to each NoC phase's start cycle.
  const std::uint64_t t = obs::time_base() + stats_.cycles.value();
  series_->append("noc.flits_injected", "flits", t,
                  static_cast<double>(stats_.flits_injected.value() -
                                      series_prev_injected_));
  series_->append("noc.flits_ejected", "flits", t,
                  static_cast<double>(stats_.flits_ejected.value() -
                                      series_prev_ejected_));
  series_->append("noc.link_flits", "flits", t,
                  static_cast<double>(stats_.link_traversals -
                                      series_prev_links_));
  series_->append("noc.queue_depth", "flits", t,
                  static_cast<double>(buffered_flits()));
  if (adaptive_) {
    // Recovery visibility: reroute bursts mark the quarantine events on the
    // same timeline as the throughput dip they explain. Gated on adaptive_
    // so baseline runs keep their exact series schema.
    series_->append("noc.packets_rerouted", "packets", t,
                    static_cast<double>(stats_.packets_rerouted -
                                        series_prev_rerouted_));
    series_prev_rerouted_ = stats_.packets_rerouted;
  }
  series_prev_injected_ = stats_.flits_injected.value();
  series_prev_ejected_ = stats_.flits_ejected.value();
  series_prev_links_ = stats_.link_traversals;
}

bool Network::drained() const {
  // queued_total_ counts every flit not yet injected, including the rest of
  // any packet mid-injection, so it doubles as the active-source check.
  // Flushed flits left the network without ejecting (their packets were
  // requeued or dropped), so conservation is injected == ejected + flushed.
  return queued_total_ == 0 &&
         stats_.flits_injected == stats_.flits_ejected + stats_.flits_flushed;
}

std::uint64_t Network::buffered_flits() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint8_t v : lanes_.sizes()) n += v;
  return n;
}

std::uint64_t Network::undelivered_flits() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sources_) n += s.queued_flits;
  return n + buffered_flits();
}

bool Network::idle_now() const {
  // Stepping would be a pure no-op: nothing buffered (conservation), no
  // source mid-packet, and no fault counters that tick on idle cycles.
  // (flits_flushed is always zero here: flushes require faults.)
  return stats_.flits_injected ==
             stats_.flits_ejected + stats_.flits_flushed &&
         active_sources_ == 0 && !fault_.enabled();
}

std::uint64_t Network::next_source_release() const noexcept {
  std::uint64_t next = ~std::uint64_t{0};
  for (const auto& s : sources_) {
    if (!s.pending.empty()) {
      next = std::min(next, s.pending.top().release_cycle);
    }
  }
  return next;
}

void Network::advance_idle(std::uint64_t target) {
  NOCW_CHECK_GT(target, stats_.cycles.value());
  idle_cycles_skipped_ += target - stats_.cycles.value();
  // With a series sink attached, jump in hops so every sampling boundary
  // that stepping would hit still fires, in increasing cycle order. The
  // network is empty, so the queue depth and window deltas are exactly the
  // zeros stepping reports.
  while (series_ != nullptr && stats_.cycles.value() < target) {
    const std::uint64_t b =
        (stats_.cycles.value() / series_interval_cycles_ + 1) *
        series_interval_cycles_;
    stats_.cycles = units::Cycles{std::min(target, b)};
    if (stats_.cycles.value() % series_interval_cycles_ == 0) sample_series();
  }
  stats_.cycles = units::Cycles{target};
}

DrainTimeoutError::DrainTimeoutError(const std::string& context,
                                     const DrainTimeoutError& inner)
    : DrainTimeoutError(context + ": " + inner.what(), inner.max_cycles_,
                        inner.tag_) {}

void Network::throw_drain_timeout(std::uint64_t max_cycles) const {
  std::ostringstream msg;
  msg << "NoC did not drain within cycle budget (" << max_cycles
      << " cycles, " << undelivered_flits() << " flits undelivered)";
  // Name the active fault/resilience configuration: a drain timeout under
  // faults is usually a blocked route, and which links/routers are down is
  // the first thing the triage needs.
  if (fault_.enabled()) {
    const FaultConfig& fc = fault_.config();
    msg << "; faults: ber=" << fc.bit_flip_probability
        << " link_p=" << fc.link_fault_probability
        << " stall_p=" << fc.router_stall_probability
        << " stuck_links=" << fc.permanent_stuck_links << " seed=" << fc.seed;
    if (!fault_.dead_links().empty()) {
      msg << "; dead links (router:port):";
      for (const int link : fault_.dead_links()) {
        msg << " " << link / kNumPorts << ":" << link % kNumPorts;
      }
    }
    if (!fault_.dead_routers().empty()) {
      msg << "; dead routers:";
      for (const int rid : fault_.dead_routers()) msg << " " << rid;
    }
  }
  if (adaptive_) {
    msg << "; routing="
        << (cfg_.resilience.route_mode == RouteMode::WestFirst ? "west_first"
                                                               : "dor")
        << " escalate=" << (escalate_ ? 1 : 0)
        << " quarantined_links=" << health_.links_down()
        << " quarantined_routers=" << health_.routers_down()
        << " rebuilds=" << stats_.route_rebuilds;
  }
  // Name one offender: prefer a flit stuck in some router FIFO, else a
  // packet still queued at (or mid-injection into) a source.
  for (std::size_t lane = 0; lane < lanes_.sizes().size(); ++lane) {
    if (lanes_.empty(lane)) continue;
    const Flit& f = lanes_.front(lane);
    const auto slot = static_cast<int>(lane % static_cast<std::size_t>(
                                                  lanes_.slots()));
    msg << "; packet " << f.packet_id << " (src " << f.src << " -> dst "
        << f.dst << ", tag " << f.tag << ") stuck at router "
        << lane / static_cast<std::size_t>(lanes_.slots()) << " port "
        << slot / lanes_.vcs() << " vc " << slot % lanes_.vcs();
    throw DrainTimeoutError(msg.str(), max_cycles, f.tag);
  }
  for (std::size_t node = 0; node < sources_.size(); ++node) {
    const auto& s = sources_[node];
    if (s.active) {
      msg << "; packet " << s.flit.packet_id << " (src " << s.current.src
          << " -> dst " << s.current.dst << ", tag " << s.current.tag
          << ") mid-injection at node " << node << " after " << s.sent
          << " flits";
      throw DrainTimeoutError(msg.str(), max_cycles, s.current.tag);
    }
    if (!s.pending.empty()) {
      const PacketDescriptor& p = s.pending.top();
      msg << "; packet (src " << p.src << " -> dst " << p.dst << ", tag "
          << p.tag << ") queued at node " << node << " with release cycle "
          << p.release_cycle << ", attempt " << p.attempt;
      throw DrainTimeoutError(msg.str(), max_cycles, p.tag);
    }
  }
  throw DrainTimeoutError(msg.str(), max_cycles, 0);
}

std::uint64_t Network::run_until_drained(std::uint64_t max_cycles) {
  const std::uint64_t start = stats_.cycles.value();
  const std::uint64_t deadline =
      max_cycles > ~std::uint64_t{0} - start ? ~std::uint64_t{0}
                                             : start + max_cycles;
  while (!drained()) {
    if (stats_.cycles.value() >= deadline) throw_drain_timeout(max_cycles);
    if (idle_now()) {
      const std::uint64_t next = next_source_release();
      if (next > stats_.cycles.value()) {
        // Nothing in flight and the earliest release is ahead: jump to it,
        // clamped to the deadline so the deadlock guard still fires at the
        // same cycle a stepped run would report.
        advance_idle(std::min(next, deadline));
        continue;
      }
    }
    step_cycle();
    if (stats_.cycles.value() % kInvariantCheckInterval == 0) {
      check_invariants();
    }
  }
  check_invariants();
  // The O(1) drain condition above, confirmed once by a full walk of the
  // sources and every lane.
  NOCW_CHECK_EQ(undelivered_flits(), std::uint64_t{0});
  return stats_.cycles.value() - start;
}

void Network::run_cycles(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    step_cycle();
    if (stats_.cycles.value() % kInvariantCheckInterval == 0) {
      check_invariants();
    }
  }
  check_invariants();
}

void Network::check_invariants() const {
  lanes_.check_invariants();
  const std::uint64_t buffered = buffered_flits();
  // Flit conservation: every injected flit is either ejected, still sitting
  // in some router FIFO, or was flushed by a quarantine. Queued flits at
  // the sources are not yet injected.
  NOCW_CHECK_EQ(stats_.flits_injected.value(),
                stats_.flits_ejected.value() + buffered +
                    stats_.flits_flushed.value());
  NOCW_CHECK_GE(stats_.packets_injected, stats_.packets_ejected);
  NOCW_CHECK_GE(stats_.flits_injected.value(), stats_.packets_injected);
  // Every buffered flit was written exactly once and is read exactly once
  // (a flushed flit was written but never read out).
  NOCW_CHECK_EQ(stats_.buffer_writes,
                stats_.buffer_reads + buffered + stats_.flits_flushed.value());
  // Each crossbar traversal reads one flit out of an input FIFO.
  NOCW_CHECK_EQ(stats_.router_traversals, stats_.buffer_reads);
  // One latency sample per ejected packet (Fig. 2 latency feeds off this).
  NOCW_CHECK_EQ(stats_.packet_latency.count(), stats_.packets_ejected);
  // The O(1) drain-tracking counters must agree with a full walk over the
  // sources, or run_until_drained could stop early or spin forever.
  std::uint64_t queued = 0;
  int active = 0;
  for (const auto& s : sources_) {
    queued += s.queued_flits;
    if (s.active) ++active;
  }
  NOCW_CHECK_EQ(queued, queued_total_);
  NOCW_CHECK_EQ(static_cast<std::uint64_t>(active),
                static_cast<std::uint64_t>(active_sources_));
  // The incremental occupancy masks and cached head routes must mirror the
  // lanes exactly, or switch allocation would silently diverge from the
  // lanes' own state. A cached route indexes the per-output candidate
  // masks, so it must also name a real port.
  for (int rid = 0; rid < lanes_.routers(); ++rid) {
    for (int slot = 0; slot < lanes_.slots(); ++slot) {
      const std::size_t lane = lanes_.lane(rid, slot);
      const bool bit = (occ_mask_[static_cast<std::size_t>(rid)] >> slot &
                        std::uint64_t{1}) != 0;
      NOCW_CHECK_EQ(static_cast<int>(bit),
                    static_cast<int>(!lanes_.empty(lane)));
      if (bit) {
        NOCW_CHECK_LT(static_cast<int>(head_out_[lane]), kNumPorts);
        NOCW_CHECK_EQ(static_cast<int>(head_out_[lane]),
                      lanes_.route(rid, lanes_.front(lane).dst));
      }
    }
    // No bit past the router's last slot: the allocator would read a
    // cached route of the next router's lanes.
    NOCW_CHECK_EQ(occ_mask_[static_cast<std::size_t>(rid)] >> lanes_.slots(),
                  std::uint64_t{0});
    NOCW_CHECK_EQ(fresh_mask_[static_cast<std::size_t>(rid)],
                  std::uint64_t{0});
  }
  // The observability arrays are decompositions of the canonical counters:
  // per-link flit counts must sum to link_traversals and per-node ejections
  // to flits_ejected, or NocObservation would disagree with the stats
  // facade.
  std::uint64_t link_sum = 0;
  for (const std::uint64_t v : link_flits_) link_sum += v;
  NOCW_CHECK_EQ(link_sum, stats_.link_traversals);
  std::uint64_t eject_sum = 0;
  for (const std::uint64_t v : node_ejects_) eject_sum += v;
  NOCW_CHECK_EQ(eject_sum, stats_.flits_ejected.value());
  // CRC bookkeeping: every ejected packet is either delivered clean or
  // failed its check, and every failure resolved into a retransmission or a
  // drop at the moment it was detected.
  NOCW_CHECK_EQ(stats_.packets_delivered + stats_.crc_failures,
                stats_.packets_ejected);
  NOCW_CHECK_EQ(stats_.retransmissions + stats_.packets_dropped,
                stats_.crc_failures);
  if (!protect_) {
    NOCW_CHECK_EQ(stats_.crc_failures, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.crc_flits_injected.value(), std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.crc_flit_events, std::uint64_t{0});
    NOCW_CHECK(eject_crc_.empty());
  }
  if (!track_inflight_) NOCW_CHECK(inflight_.empty());
  // Resilience counters are pinned to zero when the machinery is off — the
  // zero-overhead guarantee the bit-identity gates rely on — and mirror
  // the health map exactly when it is on.
  if (!adaptive_) {
    NOCW_CHECK_EQ(stats_.route_rebuilds, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.links_quarantined, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.routers_quarantined, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.flits_flushed.value(), std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.packets_rerouted, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.packets_undeliverable, std::uint64_t{0});
    NOCW_CHECK_EQ(stats_.recovery_cycles.value(), std::uint64_t{0});
  } else {
    NOCW_CHECK_EQ(stats_.links_quarantined,
                  static_cast<std::uint64_t>(health_.links_down()));
    NOCW_CHECK_EQ(stats_.routers_quarantined,
                  static_cast<std::uint64_t>(health_.routers_down()));
  }
}

}  // namespace nocw::noc
