#ifndef AQO_UTIL_CANCELLATION_H_
#define AQO_UTIL_CANCELLATION_H_

// Cooperative cancellation for anytime optimization. Every optimizer run
// can carry a Budget: a deterministic cost-evaluation cap and/or a
// wall-clock deadline. Optimizers poll a RunGuard inside their hot loops
// and, when cut short, return their best-so-far plan together with an
// explicit PlanStatus instead of running to completion.
//
// Determinism contract (docs/robustness.md): the evaluation cap is an
// integer compare against a monotone counter the optimizer already
// maintains, so a capped run is a pure function of (instance, options,
// seed) — bit-identical across threads, runs, and cache state. Wall-clock
// deadlines are nondeterministic; tier-1 tests arm only ones whose outcome
// is fixed (already passed at the first poll, or past the clock's range).
// When neither is armed the guard is inert: no counters, no clock reads,
// no behavior change.

#include <chrono>
#include <cstdint>

namespace aqo {

// Outcome of an optimizer run (or of a batch item). `kComplete` is the
// zero value so default-constructed results read as complete.
enum class PlanStatus : uint8_t {
  kComplete = 0,          // ran to its natural end
  kBudgetExhausted = 1,   // evaluation cap hit; result is best-so-far
  kDeadlineExceeded = 2,  // wall-clock deadline hit; result is best-so-far
  kFailed = 3,            // run threw (or was faulted); no plan
};

// Stable lowercase name, e.g. "budget_exhausted" (used in run-log JSON).
const char* PlanStatusName(PlanStatus status);

// Resource limits for one optimizer run. Zero values mean unlimited; a
// default Budget imposes nothing and perturbs nothing.
struct Budget {
  // Stop after this many cost evaluations (0 = unlimited). Deterministic.
  uint64_t max_evaluations = 0;
  // Stop after this much wall time (<= 0 = none). Nondeterministic.
  double deadline_ms = 0.0;
};

// The steady-clock time `deadline_ms` from now, the milliseconds
// truncated to clock ticks. A deadline past the clock's range (about
// 9.2e12 ms, so 1e13 ms or +inf) saturates to time_point::max(), which
// never comes. Callers arm only deadline_ms > 0, so NaN and values <= 0
// mean "no deadline".
std::chrono::steady_clock::time_point DeadlineAfter(double deadline_ms);

// Per-invocation guard enforcing an options-level Budget. Cheap to
// construct; the hot-path check is a single branch when inactive and an
// integer compare when only the evaluation cap is armed. Not thread-safe:
// one guard per optimizer invocation.
class RunGuard {
 public:
  // How many evaluations between wall-clock polls. Strided on the
  // caller's evaluation count, not on ShouldStop() calls: optimizers
  // whose checks each cover O(n^2) evaluations (greedy, ii) would
  // otherwise make too few calls per run to ever reach a call-count
  // stride. Deadline precision is bounded by the cost of `stride`
  // evaluations plus the span of one check interval.
  static constexpr uint64_t kDeadlinePollStride = 256;

  explicit RunGuard(const Budget& budget);

  // Returns true when the run should stop; `evaluations` is the caller's
  // monotone evaluation count. The first tripping call latches the status
  // and bumps the matching qo.cancel.* counter; later calls return true
  // without re-counting. Never consumes RNG state.
  bool ShouldStop(uint64_t evaluations) {
    if (!active_) return false;
    return ShouldStopSlow(evaluations);
  }

  // kComplete until the guard trips.
  PlanStatus status() const { return status_; }

  // True when the evaluation cap or the deadline is armed.
  bool active() const { return active_; }

 private:
  bool ShouldStopSlow(uint64_t evaluations);
  void Trip(PlanStatus status);

  uint64_t max_evaluations_ = 0;  // 0 = unlimited
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  bool active_ = false;
  uint64_t next_poll_evals_ = 0;
  PlanStatus status_ = PlanStatus::kComplete;
};

}  // namespace aqo

#endif  // AQO_UTIL_CANCELLATION_H_
