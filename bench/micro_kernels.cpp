// Engineering micro-benchmarks (google-benchmark): codec throughput,
// decompressor-unit rate, router/network cycle rate, GEMM, model building,
// quantization.
// Not a paper figure — these guard the simulator's own performance.
//
// After the google-benchmark suite, main() runs a GEMM/conv thread-scaling
// sweep (1, 2, 4, N threads) and records it in BENCH_summary.json, so the
// perf trajectory of the parallel kernels can be tracked across runs: the
// problem sizes and flop counts as metrics, the times, rates, speed-ups and
// core count as host values.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "init_reference.hpp"

#include "core/codec.hpp"
#include "core/decompressor_unit.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_detail.hpp"
#include "nn/init_detail.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "quant/affine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nocw;

std::vector<float> weights(std::size_t n, double stddev = 0.05) {
  Xoshiro256pp rng(42);
  std::vector<float> w(n);
  for (auto& x : w) x = static_cast<float>(rng.normal(0.0, stddev));
  return w;
}

// Every codec entry point runs the one segment scan and line fit; δ = 0,
// 10 and 20 cover its short-segment, typical and length-capped regimes. The
// 2^22 rows span more than one 2^17-weight chunk, so compress() splits them
// across the pool (its serial path below that).
// Args: {weights, δ%}.
void BM_Compress(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = static_cast<double>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compress(w, cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Compress)
    ->Args({1 << 14, 10})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 10})
    ->Args({1 << 18, 20})
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 20});

void BM_CompressInto(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = static_cast<double>(state.range(1));
  const double range = value_range(w);
  std::vector<float> out(w.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compress_into(w, cfg, range, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressInto)
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 10})
    ->Args({1 << 18, 20});

// The serial streamed pass each δ point of the sweep runs: the
// reconstruction goes to a no-op sink in blocks of 64 rows of 4096 weights.
void BM_CompressStream(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = static_cast<double>(state.range(1));
  const double range = value_range(w);
  const core::BlockSink sink = [](std::span<const float> block) {
    benchmark::DoNotOptimize(block.data());
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compress_stream(w, cfg, range, nn::kPanelRows * 4096, sink));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressStream)
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 8})
    ->Args({1 << 22, 20});

void BM_Decompress(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const auto layer = core::compress(w, cfg);
  std::vector<float> out(w.size());
  for (auto _ : state) {
    core::decompress(layer, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Decompress)->Arg(1 << 18);

void BM_DecompressorUnit(benchmark::State& state) {
  const auto w = weights(1 << 14);
  core::CodecConfig cfg;
  cfg.delta_percent = 15.0;
  const auto layer = core::compress(w, cfg);
  for (auto _ : state) {
    core::DecompressorUnit du;
    float sink = 0.0F;
    for (const auto& seg : layer.segments) {
      du.load(seg);
      while (du.busy()) {
        if (auto v = du.tick()) sink += *v;
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_DecompressorUnit);

void BM_Serialize(benchmark::State& state) {
  const auto w = weights(1 << 16);
  core::CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const auto layer = core::compress(w, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::serialize(layer));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Serialize);

void BM_Quantize(benchmark::State& state) {
  const auto w = weights(1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_tensor(w));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Quantize);

/// The GEMM kernel this host runs, e.g. "avx512f/64B".
std::string gemm_label() {
  const std::size_t bytes = nn::detail::gemm_vector_bytes();
  for (const auto& g : nn::detail::gemm_kernels()) {
    if (g.vector_bytes == bytes) {
      return std::string(g.isa) + "/" + std::to_string(bytes) + "B";
    }
  }
  return std::to_string(bytes) + "B";
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t n = static_cast<std::size_t>(state.range(2));
  const auto a = weights(m * k, 1.0);
  const auto b = weights(k * n, 1.0);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);  // FLOPs
  state.SetLabel(gemm_label());
}
// Squares, then the zoo's conv and dense shapes: VGG-16 conv3 (3136 output
// positions x 2304-deep patches x 256 filters), a first conv (K = 27) and
// VGG-16 fc6 over the 6 accuracy probes. Wall time, since the kernel runs
// on every lane of the pool.
BENCHMARK(BM_Gemm)
    ->UseRealTime()
    ->ArgNames({"m", "k", "n"})
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Args({3136, 2304, 256})
    ->Args({12544, 27, 32})
    ->Args({6, 25088, 4096});

void BM_GemmParallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  set_global_threads(static_cast<unsigned>(state.range(1)));
  const auto a = weights(n * n, 1.0);
  const auto b = weights(n * n, 1.0);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
  state.SetLabel(gemm_label());
  set_global_threads(1);
}
BENCHMARK(BM_GemmParallel)
    ->UseRealTime()
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

// The Laplacian weight fill on one thread, 2^22 weights: arg 0 is the
// scalar std::log loop every width must reproduce
// (tests/nn/init_reference.hpp), args 16/32/64 the vector transform at that
// width, skipped where the CPU lacks it. Items are weights.
void BM_InitLaplacian(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const nn::detail::LaplacianKernel* kernel = nullptr;
  for (const auto& k : nn::detail::laplacian_kernels()) {
    if (k.vector_bytes == bytes) kernel = &k;
  }
  if (bytes != 0 && (kernel == nullptr || !kernel->supported)) {
    state.SkipWithError("this host does not run the width");
    return;
  }
  const unsigned threads = global_thread_count();
  set_global_threads(1);
  std::vector<float> w(std::size_t{1} << 22);
  Xoshiro256pp rng(1);
  for (auto _ : state) {
    if (kernel == nullptr) {
      nn::reference_fill_laplacian(w, 0.0023, rng);
    } else {
      nn::detail::fill_laplacian(w, 0.0023, rng, *kernel);
    }
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.size()));
  state.SetLabel(kernel == nullptr
                     ? std::string("scalar")
                     : std::string(kernel->isa) + "/" +
                           std::to_string(bytes) + "B");
  set_global_threads(threads);
}
BENCHMARK(BM_InitLaplacian)
    ->ArgName("bytes")
    ->Arg(0)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Building a zoo model: graph construction plus synthetic weight generation
// on the pool (nn::init_graph). Wall time, since generation runs on every
// lane. fig10 builds each model once per process, so the first build in the
// process (cold allocator, pool start-up) is reported on its own as the
// first_build_s counter.
void BM_MakeModel(benchmark::State& state, const std::string& name) {
  static std::map<std::string, double> first_build_s;
  if (first_build_s.count(name) == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(nn::make_model(name, 1).graph.node_count());
    first_build_s[name] = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  }
  for (auto _ : state) {
    nn::Model m = nn::make_model(name, 1);
    benchmark::DoNotOptimize(m.graph.node_count());
  }
  state.counters["first_build_s"] = first_build_s[name];
}
BENCHMARK_CAPTURE(BM_MakeModel, vgg16, std::string("VGG-16"))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeModel, resnet50, std::string("ResNet50"))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_NocUniformTraffic(benchmark::State& state) {
  for (auto _ : state) {
    noc::Network net{noc::NocConfig{}};
    net.add_packets(
        noc::uniform_random_traffic(net.config(), 500, 4, 11));
    net.run_until_drained(1000000);
    benchmark::DoNotOptimize(net.stats().cycles);
  }
}
BENCHMARK(BM_NocUniformTraffic);

void BM_NocScatterStream(benchmark::State& state) {
  noc::NocConfig cfg;
  const auto pes = cfg.pe_nodes();
  for (auto _ : state) {
    noc::Network net{cfg};
    for (int mi : cfg.memory_interface_nodes()) {
      net.add_packets(noc::scatter_flow(mi, pes, 3000, 32));
    }
    net.run_until_drained(1000000);
    benchmark::DoNotOptimize(net.stats().throughput());
  }
}
BENCHMARK(BM_NocScatterStream);

// --- thread-scaling sweep → BENCH_summary.json -----------------------------

struct ScalePoint {
  unsigned threads = 1;
  double seconds = 0.0;
};

template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<unsigned> scaling_thread_counts() {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1, 2, 4};
  counts.push_back(hw);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Per thread count: `<prefix>.t<n>.seconds`, `.gflops` and `.speedup`
// (against the 1-thread time).
void add_scaling(std::map<std::string, double>& host,
                 const std::string& prefix,
                 const std::vector<ScalePoint>& pts, double flops) {
  for (const auto& p : pts) {
    const std::string key = prefix + ".t" + std::to_string(p.threads) + ".";
    host[key + "seconds"] = p.seconds;
    host[key + "gflops"] = flops / p.seconds * 1e-9;
    host[key + "speedup"] = pts.front().seconds / p.seconds;
  }
}

void write_parallel_scaling_report(const std::string& dir) {
  const std::vector<unsigned> counts = scaling_thread_counts();

  // GEMM: the acceptance-size 512x512x512 product.
  constexpr std::size_t kN = 512;
  const auto a = weights(kN * kN, 1.0);
  const auto b = weights(kN * kN, 1.0);
  std::vector<float> c(kN * kN);
  const double gemm_flops = 2.0 * kN * kN * kN;
  std::vector<ScalePoint> gemm_pts;
  for (unsigned t : counts) {
    set_global_threads(t);
    nn::gemm(a.data(), b.data(), c.data(), kN, kN, kN);  // warm up pool
    gemm_pts.push_back(ScalePoint{
        t, best_seconds(3, [&] {
          nn::gemm(a.data(), b.data(), c.data(), kN, kN, kN);
        })});
  }

  // Conv: a mid-network Same-padded 3x3 layer (im2col + GEMM path).
  constexpr int kBatch = 4, kHW = 56, kCin = 32, kCout = 64;
  nn::Conv2D conv("scaling_conv", kCin, kCout, 3, 3, 1, nn::Padding::Same);
  {
    Xoshiro256pp rng(7);
    for (auto& v : conv.kernel()) v = static_cast<float>(rng.normal(0, 0.05));
  }
  nn::Tensor input({kBatch, kHW, kHW, kCin});
  {
    Xoshiro256pp rng(8);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }
  const nn::Tensor* conv_in[] = {&input};
  const double conv_flops = 2.0 * kBatch * kHW * kHW * 9.0 * kCin * kCout;
  std::vector<ScalePoint> conv_pts;
  for (unsigned t : counts) {
    set_global_threads(t);
    (void)conv.forward(conv_in);  // warm up pool
    conv_pts.push_back(ScalePoint{
        t, best_seconds(3, [&] { (void)conv.forward(conv_in); })});
  }
  set_global_threads(1);

  obs::RunManifest man = obs::make_manifest("micro_kernels");
  man.metrics = {
      {"gemm.m", kN},
      {"gemm.k", kN},
      {"gemm.n", kN},
      {"gemm.flops", gemm_flops},
      {"conv.batch", kBatch},
      {"conv.height", kHW},
      {"conv.width", kHW},
      {"conv.in_channels", kCin},
      {"conv.out_channels", kCout},
      {"conv.flops", conv_flops}};
  man.host["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  add_scaling(man.host, "gemm", gemm_pts, gemm_flops);
  add_scaling(man.host, "conv", conv_pts, conv_flops);
  bench::write_summary(dir, man);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_parallel_scaling_report(nocw::bench::output_dir(argv[0]));
  return 0;
}
