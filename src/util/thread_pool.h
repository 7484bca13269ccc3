#ifndef AQO_UTIL_THREAD_POOL_H_
#define AQO_UTIL_THREAD_POOL_H_

// Fixed-size worker pool with a *deterministic* ParallelFor.
//
// The pool exists to make sweeps and the subset DP scale with cores while
// keeping every observable result a pure function of the inputs, never of
// the thread count or of scheduling:
//
//   * Work is split by static chunking: ParallelFor over `count` items
//     always produces num_threads() contiguous chunks whose boundaries
//     depend only on (count, num_threads()) — see ChunkOf. There is no
//     work stealing and no dynamic rebalancing, so any per-chunk
//     accumulation (local counters, local best tables) sees a fixed,
//     reproducible item order.
//   * Chunk `t` of every job runs on the same worker (chunk 0 on the
//     submitting thread), so thread-local state such as an
//     obs::ThreadCounterTally stays internally consistent per chunk.
//   * A pool constructed with threads == 1 spawns no workers at all and
//     runs every job inline on the calling thread — byte-for-byte the
//     serial behavior.
//
// Exceptions thrown by the body are caught per chunk and the one from the
// lowest chunk index is rethrown on the submitting thread after the whole
// job has drained (so the exception choice is deterministic too).
//
// Jobs do not nest: a ParallelFor issued while another job is running on
// the same pool (e.g. a parallel DP inside a parallel sweep cell) detects
// the situation and degrades to an inline serial loop instead of
// deadlocking. See docs/parallelism.md for the full determinism contract.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aqo {

class ThreadPool {
 public:
  // `threads` >= 1; 0 means HardwareConcurrency(). The pool spawns
  // threads - 1 workers (the submitting thread always executes chunk 0).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return threads_; }

  // std::thread::hardware_concurrency(), clamped to >= 1.
  static int HardwareConcurrency();

  // The half-open item range [begin, end) that chunk `t` of `threads`
  // covers for a job of `count` items: a balanced contiguous split, the
  // first count % threads chunks one item larger.
  struct Range {
    size_t begin;
    size_t end;
  };
  static Range ChunkOf(size_t count, int threads, int t);

  // Runs body(i) for every i in [0, count), split into num_threads()
  // static chunks. Blocks until all chunks finished; rethrows the
  // lowest-chunk exception if any body threw.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  // Like ParallelFor but hands each chunk to `chunk` whole as
  // (chunk_index, begin, end), for bodies that keep per-chunk accumulators
  // (local counters, local best tables) merged deterministically by the
  // caller afterwards. Chunks with an empty range are not invoked.
  using ChunkFn = std::function<void(int chunk, size_t begin, size_t end)>;
  void ParallelForChunks(size_t count, const ChunkFn& chunk);

 private:
  void WorkerLoop(int chunk_index);
  void RunInline(size_t count, const ChunkFn& chunk);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;          // bumped once per submitted job
  const ChunkFn* job_ = nullptr;     // valid while a job is in flight
  size_t job_count_ = 0;
  int pending_ = 0;                  // workers that have not finished yet
  std::vector<std::exception_ptr> errors_;  // one slot per chunk

  // Set while a job is in flight; a ParallelFor arriving meanwhile (nested
  // call from a chunk body, or a second external submitter) runs inline.
  std::atomic<bool> busy_{false};
};

}  // namespace aqo

#endif  // AQO_UTIL_THREAD_POOL_H_
