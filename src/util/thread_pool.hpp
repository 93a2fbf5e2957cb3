// Deterministic fork-join thread pool for the GEMM/conv hot path and the
// evaluation sweeps.
//
// Design goals, in order:
//  1. Bit-exact results independent of thread count. parallel_for splits
//     [begin, end) into *static* grain-sized chunks whose boundaries depend
//     only on (begin, end, grain) — never on the number of threads — so a
//     caller that keeps floating-point reduction order fixed per chunk (or
//     writes disjoint outputs per index) gets identical results with 1, 2 or
//     N threads. Chunks are handed to workers dynamically for load balance;
//     which thread runs a chunk can never affect the math.
//  2. Zero overhead when parallelism is off. With one thread (NOCW_THREADS=1
//     or a single-core host) parallel_for degenerates to one direct call of
//     the body on the full range — no locks, no allocation, no wakeups.
//  3. Safe composition. A parallel_for issued from inside a worker (nested
//     parallelism) runs inline on the calling lane instead of deadlocking on
//     the pool; exceptions thrown by the body are captured and rethrown on
//     the submitting thread after the region completes.
//
// The process-wide pool is a lazy singleton sized by the NOCW_THREADS
// environment variable (default: hardware concurrency). Benches and tests
// may resize it between regions with set_global_threads().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nocw {

class ThreadPool {
 public:
  /// Chunk body: half-open index range plus the executing lane in
  /// [0, size()). The lane is stable for the duration of one chunk and is
  /// meant for per-thread scratch buffers — results must never depend on
  /// it.
  using ChunkFn = std::function<void(std::size_t begin, std::size_t end,
                                     unsigned lane)>;

  /// `threads` counts execution lanes including the submitting thread, so
  /// ThreadPool(4) spawns 3 workers. 0 is clamped to 1 (fully serial).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (submitting thread + workers); >= 1.
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Run `fn` over [begin, end) in chunks of exactly `grain` indices (the
  /// final chunk may be short). Blocks until every chunk finished. The first
  /// exception thrown by any chunk is rethrown here. Serial fast path: with
  /// one lane, inside a worker, or when the range fits one chunk, the body
  /// runs inline as fn(begin, end, current_lane).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const ChunkFn& fn);

  /// True while the calling thread executes inside a parallel_for region
  /// (worker lane or the submitting thread running chunks). Used by nested
  /// code to pick serial paths.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// Lane of the calling thread (0 outside any region).
  [[nodiscard]] static unsigned current_lane() noexcept;

 private:
  struct Job;

  void worker_main(unsigned lane);
  static void run_chunks(Job& job, unsigned lane);

  unsigned lanes_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;          ///< active job, guarded by mu_
  std::uint64_t job_seq_ = 0;   ///< bumped per job so workers run each once
  bool stop_ = false;
  std::mutex submit_mu_;        ///< serializes concurrent top-level submits
};

/// Process-wide pool, created on first use. Size: NOCW_THREADS when set (>= 1),
/// otherwise std::thread::hardware_concurrency().
ThreadPool& global_pool();

/// Recreate the global pool with `threads` lanes. Intended for benches and
/// tests between parallel regions; not safe concurrently with running work.
void set_global_threads(unsigned threads);

/// Convenience: global_pool().size() without forcing the include of <thread>.
unsigned global_thread_count();

/// Deterministic per-task seed derived from (seed, task index): the basis for
/// thread-count-independent RNG streams in parallel sweeps.
std::uint64_t task_seed(std::uint64_t seed, std::uint64_t task_index) noexcept;

}  // namespace nocw
