// Deadlines beyond the steady clock's range (util/cancellation.h): they
// saturate to a time point that never comes, so a run armed with 1e13 ms,
// 1e15 ms, 1e300 ms or +inf behaves exactly like one with no deadline,
// and NaN or a value <= 0 arms nothing. A deadline that has already
// passed trips at the guard's first poll, whatever the clock reads.

#include "util/cancellation.h"

#include <chrono>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const std::vector<double> kFarDeadlines = {1e13, 1e15, 1e300, kInf};

TEST(Deadline, FarDeadlinesSaturateToNever) {
  using Clock = std::chrono::steady_clock;
  for (double ms : kFarDeadlines) {
    EXPECT_EQ(DeadlineAfter(ms), Clock::time_point::max()) << ms;
  }
  Clock::time_point before = Clock::now();
  Clock::time_point second = DeadlineAfter(1000.0);
  EXPECT_GE(second - before, std::chrono::seconds(1));
  EXPECT_LT(second - Clock::now(), std::chrono::seconds(2));
}

TEST(Deadline, FarDeadlinesNeverExpire) {
  for (double ms : kFarDeadlines) {
    Budget budget;
    budget.deadline_ms = ms;
    RunGuard guard(budget);
    EXPECT_TRUE(guard.active()) << ms;
    for (uint64_t evals = 0; evals < 4 * RunGuard::kDeadlinePollStride;
         evals += 7) {
      ASSERT_FALSE(guard.ShouldStop(evals)) << ms << " at " << evals;
    }
    EXPECT_EQ(guard.status(), PlanStatus::kComplete) << ms;
  }
}

TEST(Deadline, NanAndNonPositiveArmNothing) {
  for (double ms : {0.0, -1.0, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    Budget budget;
    budget.deadline_ms = ms;
    EXPECT_FALSE(RunGuard(budget).active()) << ms;
  }
}

// 1e-9 ms is less than one steady-clock tick, so the deadline is the
// arming instant; the first poll (at any evaluation count) is past it.
TEST(Deadline, PassedDeadlineTripsAtFirstPoll) {
  Budget budget;
  budget.deadline_ms = 1e-9;
  RunGuard guard(budget);
  EXPECT_TRUE(guard.ShouldStop(0));
  EXPECT_EQ(guard.status(), PlanStatus::kDeadlineExceeded);
  EXPECT_TRUE(guard.ShouldStop(1));
}

// The batch service runs every item under its knobs' Budget; a far
// deadline there must reproduce the undeadlined plans.
TEST(Deadline, FarDeadlinesLeaveBatchResultsUnchanged) {
  Rng rng(1505);
  std::vector<QonInstance> batch;
  for (int n : {3, 6, 8}) batch.push_back(RandomQonWorkload(n, &rng));
  for (const char* optimizer : {"ii", "sa", "greedy", "dp"}) {
    BatchOptions options;
    options.optimizer = optimizer;
    options.seed = 3;
    std::vector<QonBatchItem> reference = OptimizeQonBatch(batch, options);
    for (double ms : kFarDeadlines) {
      BatchOptions far = options;
      far.qon.budget.deadline_ms = ms;
      std::vector<QonBatchItem> got = OptimizeQonBatch(batch, far);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        const OptimizerResult& a = got[i].result;
        const OptimizerResult& b = reference[i].result;
        SCOPED_TRACE(std::string(optimizer) + " deadline_ms=" +
                     std::to_string(ms) + " item " + std::to_string(i));
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.evaluations, b.evaluations);
        EXPECT_EQ(a.sequence, b.sequence);
        EXPECT_EQ(a.cost.Log2(), b.cost.Log2());
      }
    }
  }
}

}  // namespace
}  // namespace aqo
