// Tests for the thread pool: ParallelFor runs every index exactly once,
// claims indices from the highest down, rethrows the lowest-index
// exception after every index ran, and runs nested submissions inline;
// plus MixSeed stream independence.

#include "util/thread_pool.h"

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace aqo {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.ParallelFor(count, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, RethrowsLowestIndexExceptionAfterEveryIndexRan) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      std::vector<std::atomic<int>> hits(100);
      try {
        pool.ParallelFor(hits.size(), [&](size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          // Every index from 37 up throws; 37 must win.
          if (i >= 37) throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "expected ParallelFor to rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 37") << "threads=" << threads;
      }
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
    // The pool stays usable after an exceptional job.
    std::atomic<size_t> n{0};
    pool.ParallelFor(50, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50u);
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInlineFromTheHighestIndexDown) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(32, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 32u);
  for (size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], 31 - k);
}

TEST(ThreadPool, NestedSubmissionRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(4, [&](size_t outer) {
    // A nested job on the same pool must not deadlock; it runs inline on
    // the thread that submitted it.
    std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(16, [&](size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      hits[outer * 16 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MixSeed, StreamsAreDistinctAndReproducible) {
  std::set<uint64_t> seen;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{12345}}) {
    for (uint64_t stream = 0; stream < 100; ++stream) {
      uint64_t s = MixSeed(seed, stream);
      EXPECT_EQ(s, MixSeed(seed, stream));
      seen.insert(s);
    }
    // A cell's stream differs from the base seed used directly.
    EXPECT_NE(MixSeed(seed, 0), seed);
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across this grid
}

}  // namespace
}  // namespace aqo
