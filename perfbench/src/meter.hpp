// Host time scaled to a reference speed.
//
// The benchmark's virtual CPUs share physical cores with other machines, and
// each one's speed drifts by up to 2x over seconds as its neighbours come and
// go (a sibling hyperthread halves the throughput of arithmetic-bound code).
// Raw wall times of the same work therefore spread far more between runs
// than any change worth measuring. Meter scales the wall time of a unit of
// work by reference / measured time of a fixed calibration kernel:
//
//  - serial work (kSerial) is bracketed by one kernel run on the calling
//    thread just before and one just after it;
//  - work that fans out onto every lane of the thread pool (kParallel) runs
//    for seconds on every CPU at once, so one sampler thread pinned to each
//    CPU wakes every few milliseconds while it runs, times a short probe (a
//    slice of the same kernel) and the mean of those probes is used.
//
// The result reads as milliseconds on the reference host. The kernel lives
// in this directory, runs on its own threads and allocates nothing, so no
// change under src/ can speed it up or slow it down: a change that makes
// the measured work faster shows in full.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Shape {
  kSerial,    ///< the work runs on the calling thread
  kParallel,  ///< the work fans out onto every lane of the thread pool
};

class Meter {
 public:
  /// `lanes`: the thread pool's lane count; with one lane every call is
  /// metered as kSerial.
  explicit Meter(unsigned lanes);
  ~Meter();
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

  /// Runs `work` and returns its wall milliseconds scaled to the reference
  /// speed. Serial calls that follow each other back to back share a
  /// calibration: the kernel run that ended a call also starts the next.
  template <class Work>
  double time(Shape shape, Work&& work) {
    if (shape == Shape::kParallel && lanes_ > 1) {
      start_sampling();
      const Clock::time_point t0 = Clock::now();
      work();
      const double ms = ms_between(t0, Clock::now());
      return ms * kProbeReferenceMs / stop_sampling();
    }
    const bool chained = ms_between(last_end_, Clock::now()) < kChainGapMs;
    const double before = chained ? last_kernel_ms_ : kernel_ms();
    const Clock::time_point t0 = Clock::now();
    work();
    const double ms = ms_between(t0, Clock::now());
    const double after = kernel_ms();
    last_kernel_ms_ = after;
    last_end_ = Clock::now();
    return ms * 2.0 * kKernelReferenceMs / (before + after);
  }

 private:
  /// Kernel and probe milliseconds on the reference host, a 4-vCPU Xeon
  /// (Sapphire Rapids) KVM guest in a phase without noisy neighbours. A
  /// probe is a tenth of the kernel's work; the reference is its time while
  /// every CPU is busy with the metered work.
  static constexpr double kKernelReferenceMs = 1.0;
  static constexpr double kProbeReferenceMs = 0.24;

  /// Longest gap between two serial calls that still share a calibration.
  static constexpr double kChainGapMs = 0.1;

  struct Scratch;
  class Sampler;
  static std::uint64_t kernel(Scratch& s, int matmuls, int queue_ops);
  static std::uint64_t warm(const Scratch& s);

  /// Wall milliseconds of one kernel run on the calling thread.
  double kernel_ms();
  void start_sampling();
  /// Mean probe milliseconds since start_sampling(); probes once on the
  /// calling thread when the work was too short for any sample.
  double stop_sampling();

  unsigned lanes_;
  std::unique_ptr<Scratch> scratch_;
  std::unique_ptr<Sampler> sampler_;  ///< only with more than one lane
  double last_kernel_ms_ = 0;
  Clock::time_point last_end_{};
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

}  // namespace perfbench
