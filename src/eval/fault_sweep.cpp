#include "eval/fault_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "eval/layer_selection.hpp"
#include "nn/metrics.hpp"
#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nocw::eval {

namespace {

/// A corrupted stream can decode to arbitrary bit patterns; NaN/Inf weights
/// would poison the whole forward pass instead of modelling a localized
/// error, so they land as zeros (what a hardware decoder's saturation or a
/// detected-parity flush would produce).
void sanitize(std::span<float> w) {
  for (float& x : w) {
    if (!std::isfinite(x)) x = 0.0F;
  }
}

/// NoC cost of streaming cfg.noc_flits of weights MI→PE at the given link
/// BER, with or without CRC protection. Deterministic in cfg.fault_seed.
struct NocCost {
  units::FracCycles cycles;
  units::Joules energy_j;
  std::uint64_t crc_failures = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t packets_dropped = 0;
  double drop_fraction = 0.0;  ///< packets lost / packets offered
};

NocCost noc_cost(const FaultSweepConfig& cfg, double ber, bool protect) {
  noc::NocConfig nc = cfg.noc;
  nc.fault.bit_flip_probability = ber;
  nc.fault.seed = cfg.fault_seed;
  nc.protection.crc = protect;
  noc::Network net(nc);

  // Weight streaming is a pure scatter phase; phase_traffic is the shared
  // MI-share compilation the accelerator uses.
  net.add_packets(noc::phase_traffic(nc, units::Flits{cfg.noc_flits},
                                     units::Flits{0}, cfg.packet_flits));
  const std::uint64_t cycles = net.run_until_drained(cfg.max_noc_cycles);
  const noc::NocStats& st = net.stats();

  NocCost out;
  out.cycles = units::FracCycles{static_cast<double>(cycles)};
  out.crc_failures = st.crc_failures;
  out.retransmissions = st.retransmissions;
  out.packets_dropped = st.packets_dropped;
  const std::uint64_t offered = st.packets_delivered + st.packets_dropped;
  if (protect && offered > 0) {
    out.drop_fraction = static_cast<double>(st.packets_dropped) /
                        static_cast<double>(offered);
  }

  power::EventCounts ev;
  ev.router_traversals = st.router_traversals;
  ev.link_traversals = st.link_traversals;
  ev.buffer_writes = st.buffer_writes;
  ev.buffer_reads = st.buffer_reads;
  ev.crc_flit_events = st.crc_flit_events;
  const units::Seconds seconds = units::seconds_at(out.cycles, nc.clock_ghz);
  const power::PlatformShape shape{nc.node_count(),
                                   static_cast<int>(nc.pe_nodes().size())};
  out.energy_j = power::annotate(ev, seconds, cfg.energy, shape).total();
  return out;
}

/// Fixed per-sweep state shared by every point: the model's graph, the
/// selected layer and its kernel, and the cached activations feeding it
/// (the expensive network prefix runs exactly once, as in DeltaEvaluator).
struct SweepContext {
  const FaultSweepConfig* cfg = nullptr;
  const nn::Graph* graph = nullptr;
  int selected = -1;
  std::span<const float> kernel;  ///< the selected layer's own weights
  nn::Tensor captured;
  std::vector<int> labels;

  /// Replay the tail with `weights` as the selected layer's kernel and
  /// score top-k accuracy. `weights` must match the kernel's size.
  [[nodiscard]] double measure(std::span<const float> weights) const {
    const nn::Tensor out =
        graph->forward_tail(captured, selected, {selected, weights});
    return nn::topk_accuracy(out, labels, cfg->topk);
  }
};

/// Accuracy of a maximally corrupted stream: every weight lost.
double measure_all_zero(const SweepContext& ctx) {
  const std::vector<float> zeros(ctx.kernel.size(), 0.0F);
  return ctx.measure(zeros);
}

FaultPoint eval_point(const SweepContext& ctx, std::size_t bi, std::size_t di,
                      const NocCost& unprot, const NocCost& prot) {
  const FaultSweepConfig& cfg = *ctx.cfg;
  FaultPoint point;
  point.bit_error_rate = cfg.bit_error_rates[bi];
  point.delta_percent = cfg.delta_percents[di];
  point.unprotected_cycles = unprot.cycles;
  point.protected_cycles = prot.cycles;
  point.unprotected_energy_j = unprot.energy_j;
  point.protected_energy_j = prot.energy_j;
  point.crc_failures = prot.crc_failures;
  point.retransmissions = prot.retransmissions;
  point.packets_dropped = prot.packets_dropped;

  core::CodecConfig codec = cfg.codec;
  codec.delta_percent = point.delta_percent;
  codec.segment_checksum = true;  // corruption must be detectable
  const core::CompressedLayer clean = core::compress(ctx.kernel, codec);
  std::vector<float> w_clean = core::decompress(clean);
  point.accuracy_clean = ctx.measure(w_clean);
  const std::vector<std::uint8_t> clean_bytes = core::serialize(clean);

  const std::size_t nd = cfg.delta_percents.size();
  const auto trials = static_cast<std::size_t>(std::max(cfg.trials, 1));
  double acc_c = 0.0;
  double acc_u = 0.0;
  double acc_p = 0.0;
  double seg_frac = 0.0;
  std::vector<std::uint8_t> bytes;
  for (std::size_t t = 0; t < trials; ++t) {
    // Three independent seed lanes per trial (compressed stream,
    // uncompressed stream, dropped-segment selection), all derived from the
    // flat trial index so the sweep is order- and thread-independent.
    const std::uint64_t base = ((bi * nd + di) * trials + t) * 3;

    // --- compressed stream corrupted at BER, tolerant-decoded ---
    bytes = clean_bytes;
    noc::corrupt_bits(bytes, point.bit_error_rate,
                      task_seed(cfg.fault_seed, base));
    double trial_frac = 1.0;
    double trial_acc = 0.0;
    try {
      core::DecodeDiagnostics diag;
      const core::CompressedLayer decoded =
          core::deserialize_tolerant(bytes, &diag);
      if (decoded.original_count == ctx.kernel.size()) {
        std::vector<float> w(decoded.original_count);
        core::decompress(decoded, w);
        sanitize(w);
        trial_acc = ctx.measure(w);
        trial_frac = diag.segments_total
                         ? static_cast<double>(diag.segments_corrupted +
                                               diag.segments_missing) /
                               static_cast<double>(diag.segments_total)
                         : 0.0;
      } else {
        // The weight-count header field itself was hit: total loss.
        trial_acc = measure_all_zero(ctx);
      }
    } catch (const core::DecodeError&) {
      trial_acc = measure_all_zero(ctx);  // header corrupted beyond use
    }
    acc_c += trial_acc;
    seg_frac += trial_frac;

    // --- uncompressed float stream corrupted at the same BER ---
    std::vector<float> wu(ctx.kernel.begin(), ctx.kernel.end());
    noc::corrupt_bits(
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(wu.data()),
                                wu.size() * sizeof(float)),
        point.bit_error_rate, task_seed(cfg.fault_seed, base + 1));
    sanitize(wu);
    acc_u += ctx.measure(wu);

    // --- CRC + retransmission: every corrupted packet is detected and
    // re-sent, so accuracy is the clean δ accuracy unless the retry budget
    // ran out; dropped packets lose their share of segments. ---
    if (prot.drop_fraction <= 0.0 || clean.segments.empty()) {
      acc_p += point.accuracy_clean;
    } else {
      core::CompressedLayer lossy = clean;
      const auto n_lost = static_cast<std::size_t>(std::ceil(
          prot.drop_fraction * static_cast<double>(lossy.segments.size())));
      Xoshiro256pp rng(task_seed(cfg.fault_seed, base + 2));
      for (std::size_t k = 0; k < n_lost; ++k) {
        auto& s = lossy.segments[rng.bounded(lossy.segments.size())];
        s.m = 0.0F;
        s.q = 0.0F;
      }
      std::vector<float> wp = core::decompress(lossy);
      acc_p += ctx.measure(wp);
    }
  }
  const auto n = static_cast<double>(trials);
  point.accuracy_compressed = acc_c / n;
  point.accuracy_uncompressed = acc_u / n;
  point.accuracy_protected = acc_p / n;
  point.corrupted_segment_fraction = seg_frac / n;
  return point;
}

}  // namespace

FaultSweepResult run_fault_sweep(const nn::Model& model,
                                 const nn::Dataset& test,
                                 const FaultSweepConfig& cfg) {
  NOCW_CHECK(!cfg.bit_error_rates.empty());
  NOCW_CHECK(!cfg.delta_percents.empty());
  for (const double ber : cfg.bit_error_rates) {
    NOCW_CHECK_GE(ber, 0.0);
    NOCW_CHECK_LE(ber, 1.0);
  }

  SweepContext ctx;
  ctx.cfg = &cfg;
  ctx.graph = &model.graph;
  ctx.selected = select_layer(model);
  ctx.kernel = model.graph.layer(ctx.selected).kernel();
  ctx.labels = test.labels;
  auto [outputs, captured] =
      model.graph.forward_capturing(test.images, ctx.selected);
  ctx.captured = std::move(captured);

  FaultSweepResult result;
  result.selected_layer = model.graph.layer(ctx.selected).name();
  result.baseline_accuracy =
      nn::topk_accuracy(outputs, ctx.labels, cfg.topk);

  // NoC cost depends only on the BER; run the (small) cycle-accurate pairs
  // up front, serially — they are deterministic and shared across δ.
  std::vector<NocCost> unprot(cfg.bit_error_rates.size());
  std::vector<NocCost> prot(cfg.bit_error_rates.size());
  for (std::size_t bi = 0; bi < cfg.bit_error_rates.size(); ++bi) {
    unprot[bi] = noc_cost(cfg, cfg.bit_error_rates[bi], /*protect=*/false);
    prot[bi] = noc_cost(cfg, cfg.bit_error_rates[bi], /*protect=*/true);
  }

  const std::size_t nd = cfg.delta_percents.size();
  const std::size_t n_points = cfg.bit_error_rates.size() * nd;
  result.points.resize(n_points);

  // Every lane reads the one model; all trial seeds are functions of the
  // flat point index, so the sweep is bit-identical for any NOCW_THREADS.
  global_pool().parallel_for(
      0, n_points, /*grain=*/1,
      [&](std::size_t i0, std::size_t i1, unsigned /*lane*/) {
        for (std::size_t i = i0; i < i1; ++i) {
          result.points[i] = eval_point(ctx, i / nd, i % nd, unprot[i / nd],
                                        prot[i / nd]);
        }
      });
  return result;
}

}  // namespace nocw::eval
