#include "meter.hpp"

#include <pthread.h>
#include <sched.h>

#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

constexpr int kDim = 64;          ///< matrix side: three 16 KiB operands
constexpr int kSlots = 8192;      ///< hash table, at most half full
constexpr int kHeapCap = 64;      ///< bounded heap, as an event queue
constexpr int kKernelMatmuls = 4;
constexpr int kKernelQueueOps = 40'000;
constexpr int kProbeMatmuls = 1;  ///< a probe is about a tenth of a kernel
constexpr int kProbeQueueOps = 2'000;
constexpr auto kSampleEvery = std::chrono::milliseconds(10);

}  // namespace

struct Meter::Scratch {
  Scratch() {
    a.fill(1.01F);
    b.fill(0.99F);
  }
  std::array<float, kDim * kDim> a;
  std::array<float, kDim * kDim> b;
  std::array<float, kDim * kDim> c{};
  std::array<std::uint64_t, kHeapCap> heap{};
  std::array<std::uint32_t, kSlots> slots{};
};

// Half arithmetic-bound (dense matrix products, as in the GEMM path), half
// control-bound (a bounded binary heap and an open-addressing hash table, as
// in the event-driven simulators). Every run with the same arguments does
// identical work.
std::uint64_t Meter::kernel(Scratch& s, int matmuls, int queue_ops) {
  s.c.fill(0.0F);
  for (int rep = 0; rep < matmuls; ++rep) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float v = s.a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) s.c[i * kDim + j] += v * s.b[k * kDim + j];
      }
    }
  }

  s.slots.fill(0);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  int n = 0;
  for (int op = 0; op < queue_ops; ++op) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if (n == kHeapCap) {  // pop the smallest key
      acc += s.heap[0];
      const std::uint64_t last = s.heap[--n];
      int i = 0;
      for (int child = 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && s.heap[child + 1] < s.heap[child]) ++child;
        if (s.heap[child] >= last) break;
        s.heap[i] = s.heap[child];
        i = child;
      }
      s.heap[i] = last;
    }
    int i = n++;  // push
    const std::uint64_t key = x >> 16;
    while (i > 0 && s.heap[(i - 1) / 2] > key) {
      s.heap[i] = s.heap[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    s.heap[i] = key;

    const auto tag = static_cast<std::uint32_t>(x >> 52) + 1;  // 4096 tags
    std::uint32_t slot = (tag * 2654435761U) & (kSlots - 1);
    while (s.slots[slot] != 0 && s.slots[slot] != tag) {
      slot = (slot + 1) & (kSlots - 1);
    }
    s.slots[slot] = tag;
    acc += slot;
  }
  return acc + static_cast<std::uint64_t>(s.c[kDim + 1]);
}

// Reads every scratch array, so that a kernel run right after work that
// evicted them from the caches times the kernel, not the refill.
std::uint64_t Meter::warm(const Scratch& s) {
  float f = 0.0F;
  for (std::size_t i = 0; i < s.a.size(); ++i) f += s.a[i] + s.b[i] + s.c[i];
  auto acc = static_cast<std::uint64_t>(f);
  for (const std::uint64_t h : s.heap) acc += h;
  for (const std::uint32_t t : s.slots) acc += t;
  return acc;
}

/// One thread pinned to each CPU the process may run on. While active, each
/// wakes every kSampleEvery, times a probe and adds it to the shared sum.
class Meter::Sampler {
 public:
  Sampler() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        threads_.emplace_back([this, cpu] { loop(cpu); });
      }
    }
  }
  ~Sampler() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      sum_ms_ = 0;
      count_ = 0;
      active_ = true;
    }
    wake_.notify_all();
  }
  /// Mean probe ms since start(), or NaN without any sample.
  double stop() {
    const std::lock_guard<std::mutex> lock(mu_);
    active_ = false;
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                       : sum_ms_ / static_cast<double>(count_);
  }

  static double probe_ms(Scratch& s, std::uint64_t& sink) {
    sink += warm(s);
    const Clock::time_point t0 = Clock::now();
    sink += kernel(s, kProbeMatmuls, kProbeQueueOps);
    return ms_between(t0, Clock::now());
  }

 private:
  void loop(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    auto scratch = std::make_unique<Scratch>();
    std::uint64_t sink = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!quit_) {
      if (!active_) {
        wake_.wait(lock);
        continue;
      }
      lock.unlock();
      std::this_thread::sleep_for(kSampleEvery);
      const double ms = probe_ms(*scratch, sink);
      lock.lock();
      if (active_) {
        sum_ms_ += ms;
        ++count_;
      }
    }
    sink_ += sink;
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool active_ = false;  ///< guarded by mu_, as are the fields below
  bool quit_ = false;
  double sum_ms_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sink_ = 0;
};

Meter::Meter(unsigned lanes)
    : lanes_(lanes), scratch_(std::make_unique<Scratch>()) {
  if (lanes_ > 1) sampler_ = std::make_unique<Sampler>();
}

Meter::~Meter() = default;

double Meter::kernel_ms() {
  sink_ += warm(*scratch_);
  const Clock::time_point t0 = Clock::now();
  sink_ += kernel(*scratch_, kKernelMatmuls, kKernelQueueOps);
  return ms_between(t0, Clock::now());
}

void Meter::start_sampling() { sampler_->start(); }

double Meter::stop_sampling() {
  const double ms = sampler_->stop();
  return std::isnan(ms) ? Sampler::probe_ms(*scratch_, sink_) : ms;
}

}  // namespace perfbench
