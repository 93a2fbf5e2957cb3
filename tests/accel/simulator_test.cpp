#include "accel/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/models.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace nocw::accel {
namespace {

AccelConfig fast_cfg() {
  AccelConfig cfg;
  cfg.noc_window_flits = 4000;  // keep unit tests quick
  return cfg;
}

TEST(Simulator, LenetInferenceProducesBreakdowns) {
  const nn::Model m = nn::make_lenet5();
  const ModelSummary s = summarize(m);
  AcceleratorSim sim(fast_cfg());
  const InferenceResult r = sim.simulate(s);
  EXPECT_EQ(r.layers.size(), 7u);  // macro layers only
  EXPECT_GT(r.latency.memory_cycles.value(), 0.0);
  EXPECT_GT(r.latency.comm_cycles.value(), 0.0);
  EXPECT_GT(r.latency.compute_cycles.value(), 0.0);
  EXPECT_GT(r.energy.total().value(), 0.0);
}

TEST(Simulator, MainMemoryDominatesLatencyForLenet) {
  // The paper's Fig. 2 observation.
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const InferenceResult r = sim.simulate(s);
  EXPECT_GT(r.latency.memory_cycles, r.latency.compute_cycles);
}

TEST(Simulator, FcLayerDominatedByWeightTraffic) {
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const InferenceResult r = sim.simulate(s);
  const LayerResult* fc = nullptr;
  for (const auto& l : r.layers) {
    if (l.name == "dense_1") fc = &l;
  }
  ASSERT_NE(fc, nullptr);
  // dense_1 has 48k weights vs a 400-element ifmap: data movement (memory +
  // NoC) dwarfs compute, which is the premise of the whole paper.
  EXPECT_GT(fc->latency.memory_cycles + fc->latency.comm_cycles,
            0.9 * fc->latency.total());
  EXPECT_LT(fc->latency.compute_cycles, 0.05 * fc->latency.total());
}

TEST(Simulator, CompressionPlanReducesLatencyAndEnergy) {
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const InferenceResult base = sim.simulate(s);

  CompressionPlan plan;
  const LayerSummary* fc = s.find("dense_1");
  ASSERT_NE(fc, nullptr);
  LayerCompression lc;
  lc.compressed_bits = fc->weight_count * 32 / 4;  // pretend CR = 4
  lc.weight_count = fc->weight_count;
  plan["dense_1"] = lc;
  const InferenceResult comp = sim.simulate(s, &plan);

  EXPECT_LT(comp.latency.total().value(), base.latency.total().value());
  EXPECT_LT(comp.energy.total().value(), base.energy.total().value());
  // Compute time is untouched by compression.
  EXPECT_DOUBLE_EQ(comp.latency.compute_cycles.value(),
                   base.latency.compute_cycles.value());
}

TEST(Simulator, CompressionChargesDecompressorEnergy) {
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const LayerSummary* fc = s.find("dense_1");
  LayerCompression lc;
  lc.compressed_bits = fc->weight_count * 32;  // CR = 1: same traffic
  lc.weight_count = fc->weight_count;
  const LayerResult base = sim.simulate_layer(*fc, nullptr);
  const LayerResult comp = sim.simulate_layer(*fc, &lc);
  // Identical traffic but extra decompressor accumulate energy.
  EXPECT_GT(comp.energy.computation.dynamic_j.value(),
            base.energy.computation.dynamic_j.value());
}

TEST(Simulator, NonTrafficLayersContributeNothing) {
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const LayerSummary* relu = s.find("conv_1_relu");
  ASSERT_NE(relu, nullptr);
  const LayerResult r = sim.simulate_layer(*relu, nullptr);
  EXPECT_DOUBLE_EQ(r.latency.total().value(), 0.0);
  EXPECT_DOUBLE_EQ(r.energy.total().value(), 0.0);
}

TEST(Simulator, WindowSamplingConsistentWithFullRun) {
  // A mid-size layer run with a big window (full simulation) vs a small
  // window (sampled + scaled): communication estimates agree within 15%.
  const ModelSummary s = summarize(nn::make_lenet5());
  const LayerSummary* fc = s.find("dense_1");  // ~24k flits
  AccelConfig full_cfg;
  full_cfg.noc_window_flits = 1 << 30;
  AccelConfig win_cfg;
  win_cfg.noc_window_flits = 3000;
  const LayerResult full = AcceleratorSim(full_cfg).simulate_layer(*fc);
  const LayerResult win = AcceleratorSim(win_cfg).simulate_layer(*fc);
  EXPECT_NEAR(win.latency.comm_cycles / full.latency.comm_cycles, 1.0, 0.15);
}

TEST(Simulator, DrainTimeoutNamesTheLayer) {
  const ModelSummary s = summarize(nn::make_lenet5());
  const LayerSummary* fc = s.find("dense_1");
  ASSERT_NE(fc, nullptr);
  AccelConfig cfg;
  cfg.noc_window_flits = 1 << 30;  // full simulation
  cfg.max_phase_cycles = 50;
  try {
    (void)AcceleratorSim(cfg).simulate_layer(*fc, nullptr, /*tag=*/7);
    FAIL() << "expected a drain timeout";
  } catch (const noc::DrainTimeoutError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("layer dense_1: "), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle budget (50 cycles"), std::string::npos) << msg;
    EXPECT_EQ(e.max_cycles(), 50u);
    EXPECT_EQ(e.tag(), 7u);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  const ModelSummary s = summarize(nn::make_lenet5());
  AcceleratorSim sim(fast_cfg());
  const InferenceResult a = sim.simulate(s);
  const InferenceResult b = sim.simulate(s);
  EXPECT_DOUBLE_EQ(a.latency.total().value(), b.latency.total().value());
  EXPECT_DOUBLE_EQ(a.energy.total().value(), b.energy.total().value());
}

/// Every layer's latency and energy components, in layer order.
std::vector<double> layer_values(const InferenceResult& r) {
  std::vector<double> v;
  for (const LayerResult& l : r.layers) {
    const LatencyBreakdown& t = l.latency;
    for (const units::FracCycles c : {t.memory_cycles, t.comm_cycles,
                                      t.compute_cycles, t.overlap_cycles}) {
      v.push_back(c.value());
    }
    const power::EnergyBreakdown& e = l.energy;
    for (const power::EnergyComponent& c :
         {e.communication, e.computation, e.local_memory, e.main_memory}) {
      v.push_back(c.dynamic_j.value());
      v.push_back(c.leakage_j.value());
    }
  }
  return v;
}

TEST(Simulator, PhaseCacheMatchesUncachedSweep) {
  // A δ-sweep in miniature: the baseline, then plans that each recompress
  // one layer, all on one simulator so unchanged layers hit the cache. A
  // simulator with a time-series sink bypasses the cache, so rerunning each
  // plan there is the uncached reference.
  const ModelSummary s = summarize(nn::make_lenet5());
  std::vector<CompressionPlan> plans(1);  // the baseline: no plan
  for (const char* name : {"dense_1", "conv_2"}) {
    const LayerSummary* layer = s.find(name);
    ASSERT_NE(layer, nullptr);
    for (const std::uint64_t ratio : {2u, 3u, 4u, 8u}) {
      plans.push_back({{name, {layer->weight_count * 32 / ratio,
                               layer->weight_count}}});
    }
  }
  AcceleratorSim cached(fast_cfg());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "plan " << i);
    const CompressionPlan& plan = plans[i];
    const InferenceResult hit = cached.simulate(s, &plan);
    obs::TimeSeriesSet series;
    AccelConfig cfg = fast_cfg();
    cfg.series = &series;
    AcceleratorSim uncached(cfg);
    const InferenceResult miss = uncached.simulate(s, &plan);
    EXPECT_EQ(uncached.noc_phase_cache_hits(), 0u);
    EXPECT_EQ(uncached.noc_phase_cache_misses(), 0u);
    EXPECT_EQ(layer_values(hit), layer_values(miss));
  }
  // The baseline's seven layer phases, then one new phase per plan.
  EXPECT_GT(cached.noc_phase_cache_hits(), 0u);
  EXPECT_EQ(cached.noc_phase_cache_misses(), 15u);
}

TEST(Simulator, MobilenetSimulatesInReasonableTime) {
  const ModelSummary s = summarize(nn::make_mobilenet());
  AcceleratorSim sim(fast_cfg());
  const InferenceResult r = sim.simulate(s);
  EXPECT_GT(r.layers.size(), 20u);
  EXPECT_GT(r.latency.total().value(), 0.0);
}

#if !defined(NOCW_TRACE_DISABLED)
TEST(Simulator, LenetFullPhasesRespectBottleneckBound) {
  // Every LeNet-5 layer simulated in full (no window scaling): its phase
  // cycles can never undercut the busiest injection port, ejection port or
  // link, each of which moves at most one flit per cycle. Live NoC tracing
  // turns on the per-link / per-node observation.
  obs::Tracer::set_enabled(true);
  obs::Tracer::set_categories(obs::kCatNoc);
  obs::Tracer::set_sample_every(1024);
  AccelConfig cfg;
  cfg.noc_window_flits = ~std::uint64_t{0};
  AcceleratorSim sim(cfg);
  const ModelSummary s = summarize(nn::make_lenet5());
  std::vector<LayerResult> layers;
  for (const LayerSummary& layer : s.layers) {
    layers.push_back(sim.simulate_layer(layer));
  }
  obs::Tracer::global().clear();
  obs::Tracer::set_categories(obs::kCatAll);
  obs::Tracer::set_sample_every(1);
  obs::Tracer::set_enabled(false);

  const auto word_bits =
      static_cast<std::uint64_t>(cfg.noc.link_width_bits);
  int phases = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerSummary& layer = s.layers[i];
    const LayerResult& r = layers[i];
    if (!layer.traffic_bearing) continue;
    SCOPED_TRACE(layer.name);
    ASSERT_TRUE(r.noc_obs.collected);
    // The layer's phase traffic, compiled as simulate_layer compiles it.
    const auto words = [&](std::uint64_t elems, int bits) {
      return units::to_words(
          units::Bits{elems * static_cast<std::uint64_t>(bits)}, word_bits);
    };
    const units::Flits scatter = units::flits_of(
        words(layer.weight_count, cfg.bits_per_weight) +
        words(layer.ifmap_elems, cfg.bits_per_activation));
    const units::Flits gather =
        units::flits_of(words(layer.ofmap_elems, cfg.bits_per_activation));
    const auto ps = noc::phase_traffic(cfg.noc, scatter, gather,
                                       cfg.packet_flits);
    ASSERT_EQ(noc::total_flits(ps), r.total_flits);
    std::vector<std::uint64_t> injected(
        static_cast<std::size_t>(cfg.noc.node_count()), 0);
    for (const noc::PacketDescriptor& p : ps) injected[p.src] += p.size_flits;
    std::uint64_t bound = 0;
    for (const std::uint64_t v : injected) bound = std::max(bound, v);
    for (const std::uint64_t v : r.noc_obs.node_ejections) {
      bound = std::max(bound, v);
    }
    for (const std::uint64_t v : r.noc_obs.link_flits) {
      bound = std::max(bound, v);
    }
    EXPECT_EQ(r.latency.comm_cycles.value(),
              static_cast<double>(r.noc_obs.window_cycles));
    EXPECT_GT(bound, 0u);
    EXPECT_GE(r.noc_obs.window_cycles, bound);
    ++phases;
  }
  EXPECT_GT(phases, 0);
}
#endif

}  // namespace
}  // namespace nocw::accel
