#ifndef AQO_OBS_METRICS_H_
#define AQO_OBS_METRICS_H_

// Process-wide counter registry. Counters are the always-on layer of the
// telemetry subsystem: optimizers increment them unconditionally (a
// single relaxed atomic add on the hot path), and InstrumentedRun
// (obs/runlog.h) tallies the increments of one invocation into the
// `counters` of its `optimizer_run` record. That record is the only way
// a counter leaves the process.
//
// Names are hierarchical, dot-separated, lowercase: <area>.<algo>.<what>,
// e.g. "qon.dp.states", "qon.sa.accepts", "qoh.decomp.fragments". See
// docs/observability.md for the naming conventions and the list of
// counters each algorithm maintains.
//
// Hot-path usage pattern (one registry lookup per process, then a relaxed
// increment per event):
//
//   static obs::Counter& accepts =
//       obs::Registry::Get().GetCounter("qon.sa.accepts");
//   accepts.Increment();

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aqo::obs {

class Counter;
class Histogram;
struct HistogramData;

// Name -> count pairs, sorted by name.
using CounterSnapshot = std::vector<std::pair<std::string, uint64_t>>;

// Scoped per-thread counter attribution. While a tally is on a thread's
// stack, every Counter increment made *by that thread* is also recorded
// into the tally, so the run-log layer can attribute an invocation's exact
// counter deltas even while other threads hammer the same global counters
// concurrently (a whole-registry before/after snapshot cannot). Tallies
// nest: popping an inner tally folds its totals into the enclosing one,
// so an outer record includes the work of nested instrumented runs.
//
// The hot-path cost when no tally is active — the always-on case — is one
// thread-local pointer load and a predictable branch per increment.
class ThreadCounterTally {
 public:
  ThreadCounterTally();
  ~ThreadCounterTally();

  ThreadCounterTally(const ThreadCounterTally&) = delete;
  ThreadCounterTally& operator=(const ThreadCounterTally&) = delete;

  // This thread's innermost active tally, or nullptr.
  static ThreadCounterTally* Current();

  // Name-sorted (counter, delta) pairs recorded so far, zero deltas
  // dropped.
  CounterSnapshot Snapshot() const;

 private:
  friend class Counter;
  void Record(const Counter* counter, uint64_t delta) {
    deltas_[counter] += delta;
  }

  std::unordered_map<const Counter*, uint64_t> deltas_;
  ThreadCounterTally* parent_;
};

// Monotonic event counter. Increments are relaxed atomics: safe from any
// thread, no ordering guarantees needed.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    if (ThreadCounterTally* tally = ThreadCounterTally::Current()) {
      tally->Record(this, delta);
    }
  }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

// Process-wide registry. GetCounter/GetHistogram find-or-create under a
// mutex; returned references are stable for the life of the process, so
// callers cache them in function-local statics and never touch the lock
// again.
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(std::string_view name);
  // Latency distributions (obs/histogram.h); names end in `_us`.
  Histogram& GetHistogram(std::string_view name);

  // Name-sorted snapshot of every histogram (empty ones included, so the
  // set of keys is stable once all call sites have been reached).
  std::vector<std::pair<std::string, HistogramData>> Histograms() const;

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace aqo::obs

#endif  // AQO_OBS_METRICS_H_
