#include "util/thread_pool.h"

#include <exception>
#include <limits>

#include "util/check.h"

namespace aqo {

// One ParallelFor call: the claim counter, and the lowest index whose
// body threw.
struct ThreadPool::Job {
  Job(size_t n, const std::function<void(size_t)>& f) : count(n), body(f) {}
  const size_t count;
  const std::function<void(size_t)>& body;
  std::atomic<size_t> claimed{0};
  std::mutex error_mu;
  size_t error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;
};

int ThreadPool::HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads == 0 ? HardwareConcurrency() : threads) {
  AQO_CHECK(threads_ >= 1) << "threads=" << threads;
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Drain(Job* job) {
  while (true) {
    size_t c = job->claimed.fetch_add(1);
    if (c >= job->count) return;
    size_t i = job->count - 1 - c;
    try {
      job->body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->error_mu);
      if (i < job->error_index) {
        job->error_index = i;
        job->error = std::current_exception();
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    lock.unlock();
    Drain(job);
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body) {
  if (count == 0) return;
  Job job(count, body);
  // threads_ == 1, a nested call from inside a running body, or a
  // concurrent external submitter: the caller drains the job alone.
  bool expected = false;
  bool pooled = !workers_.empty() &&
                busy_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire);
  if (pooled) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      pending_ = threads_ - 1;
      ++generation_;
    }
    work_cv_.notify_all();
  }
  Drain(&job);
  if (pooled) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
    lock.unlock();
    busy_.store(false, std::memory_order_release);
  }
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace aqo
