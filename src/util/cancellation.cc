#include "util/cancellation.h"

#include <limits>

#include "obs/metrics.h"

namespace aqo {

const char* PlanStatusName(PlanStatus status) {
  switch (status) {
    case PlanStatus::kComplete:
      return "complete";
    case PlanStatus::kBudgetExhausted:
      return "budget_exhausted";
    case PlanStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case PlanStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::chrono::steady_clock::time_point DeadlineAfter(double deadline_ms) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point now = Clock::now();
  // Counted in ticks as a double first: the integer cast of a count past
  // the rep's range is undefined, and in practice lands in the past.
  double ticks = std::chrono::duration<double, Clock::period>(
                     std::chrono::duration<double, std::milli>(deadline_ms))
                     .count();
  if (!(ticks < static_cast<double>(std::numeric_limits<Clock::rep>::max()))) {
    return Clock::time_point::max();
  }
  auto count = static_cast<Clock::rep>(ticks);
  if (count >= (Clock::time_point::max() - now).count()) {
    return Clock::time_point::max();
  }
  return now + Clock::duration(count);
}

RunGuard::RunGuard(const Budget& budget)
    : max_evaluations_(budget.max_evaluations) {
  if (budget.deadline_ms > 0) {
    has_deadline_ = true;
    deadline_ = DeadlineAfter(budget.deadline_ms);
  }
  active_ = max_evaluations_ > 0 || has_deadline_;
  if (has_deadline_) {
    static obs::Counter& armed =
        obs::Registry::Get().GetCounter("qo.deadline.armed");
    armed.Increment();
  }
}

bool RunGuard::ShouldStopSlow(uint64_t evaluations) {
  if (status_ != PlanStatus::kComplete) return true;
  // Deterministic cap first: it must trip at the same evaluation count
  // regardless of how fast the wall clock is moving.
  if (max_evaluations_ != 0 && evaluations >= max_evaluations_) {
    Trip(PlanStatus::kBudgetExhausted);
    return true;
  }
  if (!has_deadline_) return false;
  // Poll the clock on an evaluation stride so the per-check cost stays a
  // compare, however many evaluations one check covers.
  if (evaluations < next_poll_evals_) return false;
  next_poll_evals_ = evaluations + kDeadlinePollStride;
  if (std::chrono::steady_clock::now() >= deadline_) {
    Trip(PlanStatus::kDeadlineExceeded);
    return true;
  }
  return false;
}

void RunGuard::Trip(PlanStatus status) {
  status_ = status;
  if (status == PlanStatus::kBudgetExhausted) {
    static obs::Counter& budget =
        obs::Registry::Get().GetCounter("qo.cancel.budget_exhausted");
    budget.Increment();
  } else if (status == PlanStatus::kDeadlineExceeded) {
    static obs::Counter& deadline =
        obs::Registry::Get().GetCounter("qo.cancel.deadline_exceeded");
    deadline.Increment();
  }
}

}  // namespace aqo
