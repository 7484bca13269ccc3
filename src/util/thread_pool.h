#ifndef AQO_UTIL_THREAD_POOL_H_
#define AQO_UTIL_THREAD_POOL_H_

// Fixed-size worker pool with one primitive, ParallelFor, whose callers
// (bench::SweepRunner) keep every observable result a pure function of
// the inputs, never of the thread count or of scheduling:
//
//   * Indices are claimed one at a time from a single atomic counter,
//     highest index first, by the submitting thread and every worker.
//     Which thread runs an index is left to scheduling, so a body must
//     write only to its own index's slot.
//   * A pool constructed with threads == 1 spawns no workers at all and
//     runs every job inline on the calling thread, in the same order.
//   * Every index runs, even after a body threw; the exception of the
//     lowest index that threw is then rethrown on the submitting thread,
//     so the failure reported is deterministic too.
//   * Workers persist for the pool's lifetime: per-thread state that is
//     never freed (the trace-event buffers of obs/trace.cc) stays bounded
//     by the pool size, not by the number of jobs.
//
// Jobs do not nest: a ParallelFor issued while another job is running on
// the same pool (from inside a body, or by a second submitter) runs
// inline on its caller instead of deadlocking. See docs/parallelism.md.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aqo {

class ThreadPool {
 public:
  // `threads` >= 1; 0 means HardwareConcurrency(). The pool spawns
  // threads - 1 workers; the submitting thread is the last one.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return threads_; }

  // std::thread::hardware_concurrency(), clamped to >= 1.
  static int HardwareConcurrency();

  // Runs body(i) once for every i in [0, count), claiming indices from
  // count - 1 down to 0. Blocks until every index has run; then rethrows
  // the exception of the lowest index whose body threw, if any.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

 private:
  struct Job;

  void WorkerLoop();
  static void Drain(Job* job);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;  // bumped once per submitted job
  Job* job_ = nullptr;       // valid while a job is in flight
  int pending_ = 0;          // workers that have not finished yet

  // Set while a job is in flight; a ParallelFor arriving meanwhile runs
  // inline.
  std::atomic<bool> busy_{false};
};

}  // namespace aqo

#endif  // AQO_UTIL_THREAD_POOL_H_
