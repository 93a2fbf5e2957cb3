#include "accel/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace nocw::accel {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

std::uint64_t sig_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Fingerprint of the NoC knobs that can change a phase run's outcome
/// (fault pattern, protection, resilience, routing). Pure config mixing —
/// deliberately not noc::fault_hash, which is reserved for fault sampling.
std::uint64_t env_signature(const noc::NocConfig& n) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = sig_mix(h, std::bit_cast<std::uint64_t>(n.fault.bit_flip_probability));
  h = sig_mix(h, std::bit_cast<std::uint64_t>(n.fault.link_fault_probability));
  h = sig_mix(h,
              std::bit_cast<std::uint64_t>(n.fault.router_stall_probability));
  h = sig_mix(h, static_cast<std::uint64_t>(n.fault.permanent_stuck_links));
  h = sig_mix(h, static_cast<std::uint64_t>(n.fault.permanent_link_outages));
  h = sig_mix(h, static_cast<std::uint64_t>(n.fault.permanent_router_outages));
  h = sig_mix(h, n.fault.seed);
  h = sig_mix(h, n.protection.crc ? 1u : 0u);
  h = sig_mix(h, static_cast<std::uint64_t>(n.protection.max_retries));
  h = sig_mix(h, n.protection.retry_backoff_cycles);
  h = sig_mix(h, n.protection.fail_on_drop ? 1u : 0u);
  h = sig_mix(h, static_cast<std::uint64_t>(n.resilience.route_mode));
  h = sig_mix(h, n.resilience.assume_known_outages ? 1u : 0u);
  h = sig_mix(h, n.resilience.escalate ? 1u : 0u);
  h = sig_mix(h, n.resilience.stall_threshold_cycles);
  h = sig_mix(h,
              static_cast<std::uint64_t>(n.resilience.retry_suspicion_threshold));
  h = sig_mix(h, static_cast<std::uint64_t>(n.routing));
  return h;
}

// Synthesize time-series points for an analytic phase: `amount` units of
// work spread uniformly over [start_cycle, start_cycle + phase_cycles).
// Point count follows the sampling interval but is capped: the analytic
// profile is uniform by construction, so extra points carry no information.
void sample_phase(obs::TimeSeriesSet* sink, const char* name,
                  std::uint64_t start_cycle, units::FracCycles phase_cycles,
                  double amount, std::uint64_t interval_cycles) {
  if (sink == nullptr || amount <= 0.0 ||
      phase_cycles <= units::FracCycles{0.0}) {
    return;
  }
  const std::uint64_t span = units::round_cycles(phase_cycles).value();
  if (span == 0) return;
  constexpr std::uint64_t kMaxPointsPerPhase = 32;
  const std::uint64_t n = std::clamp<std::uint64_t>(
      span / std::max<std::uint64_t>(interval_cycles, 1), 1,
      kMaxPointsPerPhase);
  for (std::uint64_t k = 1; k <= n; ++k) {
    // Each point reports the work done since the previous one (a window
    // delta, matching the NoC engine's series semantics).
    sink->append(name, "count", start_cycle + span * k / n,
                 amount / static_cast<double>(n));
  }
}

}  // namespace

void LatencyBreakdown::check_invariants() const {
  NOCW_CHECK(std::isfinite(memory_cycles.value()));
  NOCW_CHECK(std::isfinite(comm_cycles.value()));
  NOCW_CHECK(std::isfinite(compute_cycles.value()));
  NOCW_CHECK(std::isfinite(overlap_cycles.value()));
  NOCW_CHECK_GE(memory_cycles.value(), 0.0);
  NOCW_CHECK_GE(comm_cycles.value(), 0.0);
  NOCW_CHECK_GE(compute_cycles.value(), 0.0);
  NOCW_CHECK_GE(overlap_cycles.value(), 0.0);
}

AcceleratorSim::AcceleratorSim(const AccelConfig& cfg,
                               const power::EnergyTable& table)
    : cfg_(cfg), table_(table) {
  check_invariants();
  live_mis_ = cfg_.noc.memory_interface_nodes();
  live_pes_ = cfg_.noc.pe_nodes();
  if (cfg_.noc.resilience.adaptive()) {
    // PE/MI failover: endpoints on permanently-dead routers get no traffic
    // shares and contribute no throughput; survivors absorb their work.
    // Derived once, from the same seeded placement the network uses, so a
    // degraded run is deterministic for any thread count.
    const noc::FaultModel fm(cfg_.noc.fault, cfg_.noc.node_count(),
                             cfg_.noc.width);
    const auto dead = fm.dead_routers();
    if (!dead.empty() || !fm.dead_links().empty()) {
      const auto drop_dead = [&](std::vector<int>& nodes) {
        std::erase_if(nodes, [&](int node) {
          return std::binary_search(dead.begin(), dead.end(), node);
        });
      };
      drop_dead(live_mis_);
      drop_dead(live_pes_);
      // Transit connectivity: the west-first turn model cannot always
      // detour around a dead transit router/link (westward travel must be
      // a path prefix), so a live endpoint can still be unreachable from a
      // live MI — and phase traffic must be lossless, never silently
      // dropped as undeliverable. Drop MIs that cannot exchange data with
      // any PE, then PEs not mutually reachable with every remaining MI.
      noc::HealthMap health(cfg_.noc.node_count());
      for (const int link : fm.dead_links()) {
        health.mark_link_down(link / noc::kNumPorts, link % noc::kNumPorts);
      }
      for (const int rid : dead) health.mark_router_down(rid);
      noc::RouteTable table(cfg_.noc, cfg_.noc.resilience.route_mode);
      table.rebuild(health);
      const auto mutual = [&](int a, int b) {
        return table.reachable(a, b) && table.reachable(b, a);
      };
      const auto mutual_pe_count = [&](int mi) {
        std::size_t n = 0;
        for (const int pe : live_pes_) n += mutual(mi, pe) ? 1 : 0;
        return n;
      };
      // Keep the PEs every surviving MI can exchange data with. When that
      // set is empty the outage has split the mesh from the MIs' point of
      // view (e.g. a dead column-0 router strands one corner MI on the
      // wrong side of every west-chain); sacrificing the most-constraining
      // MI — fewest mutually reachable PEs, highest node id on ties — and
      // retrying trades one memory port for a usable compute pool. The
      // walk is a pure function of the fault placement: deterministic.
      while (true) {
        std::vector<int> ok;
        for (const int pe : live_pes_) {
          if (std::all_of(live_mis_.begin(), live_mis_.end(),
                          [&](int mi) { return mutual(mi, pe); })) {
            ok.push_back(pe);
          }
        }
        if (!ok.empty() || live_mis_.size() <= 1) {
          live_pes_ = std::move(ok);
          break;
        }
        int worst = live_mis_.front();
        std::size_t worst_count = mutual_pe_count(worst);
        for (const int mi : live_mis_) {
          const std::size_t count = mutual_pe_count(mi);
          if (count < worst_count ||
              (count == worst_count && mi > worst)) {
            worst = mi;
            worst_count = count;
          }
        }
        std::erase(live_mis_, worst);
      }
      // No surviving MI (or PE) means the workload cannot be remapped —
      // degradation has a floor, and silently dividing by zero is not it.
      NOCW_CHECK(!live_mis_.empty());
      NOCW_CHECK(!live_pes_.empty());
    }
  }
  env_sig_ = env_signature(cfg_.noc);
}

void AcceleratorSim::check_invariants() const {
  NOCW_CHECK_GE(cfg_.noc.width, 1);
  NOCW_CHECK_GE(cfg_.noc.height, 1);
  NOCW_CHECK_GE(cfg_.noc.buffer_depth, 1);
  NOCW_CHECK_GE(cfg_.noc.link_width_bits, 1);
  NOCW_CHECK_GE(cfg_.noc.virtual_channels, 1);
  NOCW_CHECK_LE(cfg_.noc.virtual_channels, noc::kMaxVirtualChannels);
  NOCW_CHECK_GT(cfg_.noc.clock_ghz, 0.0);
  NOCW_CHECK_GT(cfg_.macs_per_pe_per_cycle, 0);
  NOCW_CHECK_GE(cfg_.pe_local_memory_bytes, 0);
  NOCW_CHECK_GT(cfg_.dram_words_per_cycle_per_mi, 0);
  NOCW_CHECK_GT(cfg_.dram_efficiency, 0.0);
  NOCW_CHECK_LE(cfg_.dram_efficiency, 1.0);
  NOCW_CHECK_GE(cfg_.dram_latency_cycles, 0);
  NOCW_CHECK_GT(cfg_.packet_flits, 0U);
  NOCW_CHECK_GT(cfg_.bits_per_weight, 0);
  NOCW_CHECK_GT(cfg_.bits_per_activation, 0);
  NOCW_CHECK_GT(cfg_.noc_window_flits, std::uint64_t{0});
  NOCW_CHECK_GT(cfg_.max_phase_cycles, std::uint64_t{0});
  NOCW_CHECK_GT(cfg_.series_interval_cycles, std::uint64_t{0});
  // Fault/protection knobs ride inside cfg_.noc; validate probabilities here
  // so a mis-set sweep fails at construction, not mid-run.
  NOCW_CHECK_GE(cfg_.noc.fault.bit_flip_probability, 0.0);
  NOCW_CHECK_LE(cfg_.noc.fault.bit_flip_probability, 1.0);
  NOCW_CHECK_GE(cfg_.noc.fault.link_fault_probability, 0.0);
  NOCW_CHECK_LE(cfg_.noc.fault.link_fault_probability, 1.0);
  NOCW_CHECK_GE(cfg_.noc.fault.router_stall_probability, 0.0);
  NOCW_CHECK_LE(cfg_.noc.fault.router_stall_probability, 1.0);
  NOCW_CHECK_GE(cfg_.noc.fault.permanent_stuck_links, 0);
  NOCW_CHECK_GE(cfg_.noc.fault.permanent_link_outages, 0);
  NOCW_CHECK_GE(cfg_.noc.fault.permanent_router_outages, 0);
  NOCW_CHECK_GE(cfg_.noc.protection.max_retries, 0);
  NOCW_CHECK(!cfg_.noc.resilience.escalate || cfg_.noc.resilience.adaptive());
  NOCW_CHECK_GE(cfg_.noc.resilience.stall_threshold_cycles, std::uint64_t{1});
  NOCW_CHECK_GE(cfg_.noc.resilience.retry_suspicion_threshold, 1);
}

AcceleratorSim::NocPhase AcceleratorSim::run_noc_phase(
    units::Flits scatter_flits, units::Flits gather_flits,
    std::uint32_t tag) const {
  NocPhase out;
  const units::Flits total = scatter_flits + gather_flits;
  if (total.value() == 0) return out;

  // Memoization: under one config the (scatter, gather) volumes fully
  // determine the compiled packet sequence and hence the phase result (the
  // tag is a diagnostics label that never reaches stats). A δ-sweep
  // re-simulates every *unchanged* layer at each grid point; the cache
  // collapses those repeats to one cycle-accurate run per distinct volume
  // pair. Bypassed when the run has per-call side channels — a time-series
  // sink or live NoC tracing must fire on every call, not once.
  const bool cacheable =
      cfg_.series == nullptr && !NOCW_TRACE_ON(obs::kCatNoc);
  const auto key = std::make_tuple(scatter_flits.value(),
                                   gather_flits.value(), env_sig_);
  if (cacheable) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (const auto it = phase_cache_.find(key); it != phase_cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }

  // Window sampling: preserve the scatter/gather mix, scale volumes down so
  // the cycle-accurate run stays bounded, then scale results back up. The
  // traffic is steady-state streaming, so throughput and per-flit event
  // counts are volume-independent once past the pipeline fill.
  const units::Flits window{cfg_.noc_window_flits};
  const double scale = total > window ? window / total : 1.0;
  const units::Flits scaled_scatter{static_cast<std::uint64_t>(
      std::llround(scatter_flits.dvalue() * scale))};
  const units::Flits scaled_gather{static_cast<std::uint64_t>(
      std::llround(gather_flits.dvalue() * scale))};

  noc::Network net(cfg_.noc);
  if (cfg_.series != nullptr) {
    net.set_series_sink(cfg_.series, cfg_.series_interval_cycles);
  }
  // Scatter: each MI streams an equal share of the weights+ifmap volume,
  // round-robin over the PEs. Gather: PEs stream the ofmap back, spread over
  // the MIs. phase_traffic is the one shared definition of that compilation.
  units::Flits injected;
  {
    // Compile over the *live* endpoint lists (== the full sets without
    // failover), so a degraded layer's traffic never targets a dead router.
    const auto ps =
        noc::phase_traffic(cfg_.noc, live_mis_, live_pes_, scaled_scatter,
                           scaled_gather, cfg_.packet_flits, tag);
    net.add_packets(ps);
    injected = noc::total_flits(ps);
  }
  if (injected.value() == 0) return out;

  // Steady-state throughput is measured between the 25% and 75% ejection
  // marks, excluding the pipeline fill and the drain tail; the window run's
  // own cycles are kept as-is and only the *remaining* volume is charged at
  // the steady rate. For scale = 1 (full simulation) this is exact.
  std::uint64_t ejected = 0;
  std::uint64_t q1_cycle = 0;
  std::uint64_t q3_cycle = 0;
  const std::uint64_t q1_mark =
      std::max<std::uint64_t>(1, injected.value() / 4);
  const std::uint64_t q3_mark =
      std::max<std::uint64_t>(q1_mark + 1, 3 * injected.value() / 4);
  net.set_eject_hook([&](const noc::Flit&, std::uint64_t cycle) {
    ++ejected;
    if (ejected == q1_mark) q1_cycle = cycle;
    if (ejected == q3_mark) q3_cycle = cycle;
  });
  const std::uint64_t cycles = net.run_until_drained(cfg_.max_phase_cycles);
  if (net.observing()) {
    const auto links = net.link_flit_counts();
    const auto ejects = net.node_eject_counts();
    out.observation.link_flits.assign(links.begin(), links.end());
    out.observation.node_ejections.assign(ejects.begin(), ejects.end());
    out.observation.window_cycles = cycles;
    out.observation.collected = true;
  }
  const units::Flits remaining = total - injected;
  double extra = 0.0;
  if (remaining.value() > 0) {
    const double span =
        q3_cycle > q1_cycle ? static_cast<double>(q3_cycle - q1_cycle) : 1.0;
    const double steady_throughput =
        static_cast<double>(q3_mark - q1_mark) / span;
    extra = remaining.dvalue() / std::max(0.1, steady_throughput);
  }
  out.cycles = units::FracCycles{static_cast<double>(cycles) + extra};
  const double up = total / injected;
  const auto& st = net.stats();
  out.events.router_traversals = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(st.router_traversals) * up));
  out.events.link_traversals = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(st.link_traversals) * up));
  out.events.buffer_writes = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(st.buffer_writes) * up));
  out.events.buffer_reads = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(st.buffer_reads) * up));
  out.events.crc_flit_events = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(st.crc_flit_events) * up));
  if (cacheable) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++cache_misses_;
    phase_cache_.emplace(key, out);
  }
  return out;
}

std::uint64_t AcceleratorSim::noc_phase_cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_hits_;
}

std::uint64_t AcceleratorSim::noc_phase_cache_misses() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_misses_;
}

LayerResult AcceleratorSim::simulate_layer(
    const LayerSummary& layer, const LayerCompression* compression,
    std::uint32_t tag) const {
  LayerResult r;
  r.name = layer.name;
  r.type = layer.type;
  if (!layer.traffic_bearing) return r;

  const auto word_bits = static_cast<std::uint64_t>(cfg_.noc.link_width_bits);
  const units::Bits weight_bits{
      compression ? compression->compressed_bits
                  : layer.weight_count *
                        static_cast<std::uint64_t>(cfg_.bits_per_weight)};
  r.weight_stream_bits = weight_bits;

  const units::Bits ifmap_bits{
      layer.ifmap_elems *
      static_cast<std::uint64_t>(cfg_.bits_per_activation)};
  const units::Bits ofmap_bits{
      layer.ofmap_elems *
      static_cast<std::uint64_t>(cfg_.bits_per_activation)};

  const units::Words weight_words = units::to_words(weight_bits, word_bits);
  const units::Words ifmap_words = units::to_words(ifmap_bits, word_bits);
  const units::Words ofmap_words = units::to_words(ofmap_bits, word_bits);

  // --- (1)/(4) main memory ---
  const units::Words dram_words = weight_words + ifmap_words + ofmap_words;
  const std::uint64_t mi_count = live_mis_.size();
  const double dram_rate =
      static_cast<double>(cfg_.dram_words_per_cycle_per_mi) *
      static_cast<double>(mi_count) * cfg_.dram_efficiency;
  r.latency.memory_cycles = units::FracCycles{
      dram_words.dvalue() / dram_rate + cfg_.dram_latency_cycles};

  // --- (2) NoC scatter + gather (one link-width word is one flit) ---
  const units::Flits scatter_flits =
      units::flits_of(weight_words + ifmap_words);
  const units::Flits gather_flits = units::flits_of(ofmap_words);
  r.total_flits = scatter_flits + gather_flits;
  const std::uint64_t mem_off =
      units::round_cycles(r.latency.memory_cycles).value();
  NocPhase phase;
  {
    // The network stamps phase-local cycles; shift its events past the DRAM
    // phase so the whole layer shares one timeline.
    obs::ScopedTimeBase noc_base(obs::time_base() + mem_off);
    try {
      phase = run_noc_phase(scatter_flits, gather_flits, tag);
    } catch (const noc::DrainTimeoutError& e) {
      throw noc::DrainTimeoutError("layer " + layer.name, e);
    }
  }
  r.noc_obs = std::move(phase.observation);
  r.latency.comm_cycles = phase.cycles;

  // --- (3) compute ---
  const std::uint64_t pe_count = live_pes_.size();
  const std::uint64_t throughput =
      pe_count * static_cast<std::uint64_t>(cfg_.macs_per_pe_per_cycle);
  r.latency.compute_cycles = units::FracCycles{static_cast<double>(
      ceil_div(layer.macs + layer.ops,
               std::max<std::uint64_t>(throughput, 1)))};

  r.latency.overlap_cycles =
      std::max({r.latency.memory_cycles, r.latency.comm_cycles,
                r.latency.compute_cycles});

  // --- events -> energy ---
  power::EventCounts ev = phase.events;
  ev.dram_accesses = dram_words.value();
  ev.macs = layer.macs + layer.ops;
  ev.decompress_steps = compression ? compression->weight_count : 0;
  // Local SRAM: incoming words buffered once (one scatter flit carries
  // exactly one word, hence the explicit .value() unit hand-off), operands
  // read per MAC (two fp32 operands per MAC = one 64-bit word). The sum is
  // a dimensionless event count, so the raw magnitudes are the right form.
  // nocw-analyze: allow(units.value-launder)
  ev.sram_writes = scatter_flits.value() + ofmap_words.value();
  ev.sram_reads = layer.macs + layer.ops + ofmap_words.value();

  const units::FracCycles layer_cycles =
      cfg_.overlap_phases ? r.latency.overlap_cycles : r.latency.total();
  const units::Seconds seconds =
      units::seconds_at(layer_cycles, cfg_.noc.clock_ghz);
  const power::PlatformShape shape{cfg_.noc.node_count(),
                                   static_cast<int>(pe_count)};
  r.energy = power::annotate(ev, seconds, table_, shape);
  r.latency.check_invariants();
  r.energy.check_invariants();

  // Phase spans on the layer-local timeline (the caller's ScopedTimeBase
  // shifts them onto the inference-global one). Tracks: 0 = layer markers,
  // 1 = DRAM, 2 = NoC, 3 = MAC lanes, 4 = decompressors.
  const auto dur_of = [](units::FracCycles cycles) {
    return units::round_cycles(cycles).value();
  };
  const std::uint64_t comm_off = mem_off + dur_of(r.latency.comm_cycles);
  // Time-series activity for the analytic phases (the NoC phase sampled
  // itself cycle-by-cycle above). All on the inference-global timeline.
  if (cfg_.series != nullptr) {
    const std::uint64_t base = obs::time_base();
    sample_phase(cfg_.series, "accel.dram_words", base,
                 r.latency.memory_cycles, dram_words.dvalue(),
                 cfg_.series_interval_cycles);
    sample_phase(cfg_.series, "accel.macs", base + comm_off,
                 r.latency.compute_cycles,
                 static_cast<double>(layer.macs + layer.ops),
                 cfg_.series_interval_cycles);
    if (compression) {
      sample_phase(cfg_.series, "accel.decompress_weights", base + comm_off,
                   r.latency.compute_cycles,
                   static_cast<double>(compression->weight_count),
                   cfg_.series_interval_cycles);
    }
  }
  NOCW_TRACE_SPAN(obs::kCatMem, "dram", obs::kPidAccel, 1, 0,
                  dur_of(r.latency.memory_cycles));
  NOCW_TRACE_SPAN_ARG(obs::kCatNoc, "noc", obs::kPidAccel, 2, mem_off,
                      dur_of(r.latency.comm_cycles), "flits",
                      r.total_flits.dvalue());
  NOCW_TRACE_SPAN_ARG(obs::kCatMac, "mac", obs::kPidAccel, 3, comm_off,
                      dur_of(r.latency.compute_cycles), "macs",
                      static_cast<double>(layer.macs + layer.ops));
  if (compression) {
    // Decompressors reconstruct one weight per cycle per PE, overlapped
    // with the MAC phase (Fig. 6: decompression never stalls the stream).
    NOCW_TRACE_SPAN_ARG(obs::kCatDecomp, "decompress", obs::kPidAccel, 4,
                        comm_off, dur_of(r.latency.compute_cycles), "weights",
                        static_cast<double>(compression->weight_count));
  }
  NOCW_TRACE_SPAN(obs::kCatLayer, "layer:" + r.name, obs::kPidAccel, 0, 0,
                  dur_of(r.latency.total()));
  return r;
}

InferenceResult AcceleratorSim::simulate(const ModelSummary& summary,
                                         const CompressionPlan* plan) const {
  InferenceResult result;
  result.model_name = summary.model_name;
  // Layers stack on one inference-global timeline: each layer's spans are
  // emitted relative to its own start, so advance the thread-local time base
  // by the accumulated latency before simulating it.
  std::uint64_t clock = 0;
  const std::uint64_t outer_base = obs::time_base();
  for (std::size_t i = 0; i < summary.layers.size(); ++i) {
    const auto& layer = summary.layers[i];
    const LayerCompression* lc = nullptr;
    if (plan) {
      const auto it = plan->find(layer.name);
      if (it != plan->end()) lc = &it->second;
    }
    LayerResult lr;
    {
      obs::ScopedTimeBase layer_base(outer_base + clock);
      // The layer ordinal tags the layer's NoC packets (drain-timeout
      // diagnostics name the layer, not just node ids).
      lr = simulate_layer(layer, lc, static_cast<std::uint32_t>(i));
    }
    if (!layer.traffic_bearing) continue;
    clock += units::round_cycles(lr.latency.total()).value();
    result.latency += lr.latency;
    result.energy += lr.energy;
    result.noc_obs.merge(lr.noc_obs);
    result.layers.push_back(std::move(lr));
  }
  return result;
}

CompressionPlan resident_weights_plan(const ModelSummary& summary) {
  CompressionPlan plan;
  for (const LayerSummary& layer : summary.layers) {
    if (!layer.traffic_bearing || layer.weight_count == 0) continue;
    // compressed_bits = 0: no weight stream to fetch or scatter;
    // weight_count = 0: no decompress steps (nothing was encoded).
    plan[layer.name] = LayerCompression{0, 0};
  }
  return plan;
}

}  // namespace nocw::accel
