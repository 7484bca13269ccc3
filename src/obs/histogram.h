#ifndef AQO_OBS_HISTOGRAM_H_
#define AQO_OBS_HISTOGRAM_H_

// Lock-free latency histograms: the distribution tier of the telemetry
// subsystem. Counters (obs/metrics.h) answer "how many"; histograms
// answer "how long" — p50/p99 latency of a batch item, a plan-cache
// probe, an optimizer invocation — without retaining samples.
//
// Layout is HDR-style log-linear: values bucket by power-of-two range
// with kSubBuckets linear sub-buckets per range, so every recorded value
// lands in a bucket whose width is at most 1/kSubBuckets of its lower
// bound (<= 6.25% relative error with the default 16 sub-buckets;
// values below kSubBuckets are exact). Recording is a relaxed-atomic
// bucket increment plus a relaxed sum add — safe from any thread, no
// locks, and within ~2x of a bare Counter::Increment (bench/micro's
// BM_HistogramRecord vs BM_CounterIncrement keeps this honest).
//
// The unit convention is microseconds with names ending in `_us`
// (`qo.service.item_computed_us`, `qo.plan_cache.probe_us`); see
// docs/observability.md for the naming rules.
//
// Hot-path usage mirrors counters — one registry lookup, then record:
//
//   static obs::Histogram& probe_us =
//       obs::Registry::Get().GetHistogram("qo.plan_cache.probe_us");
//   probe_us.Record(micros);

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aqo::obs {

class Histogram;

// Immutable snapshot of one histogram's contents: totals plus the sparse
// non-empty buckets (index-sorted, so snapshots serialize and compare
// deterministically).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;  // (index, count)

  // q in [0, 1]. Returns the upper bound of the bucket holding the
  // ceil(q*count)-th smallest recorded value, clamped to [min, max]; 0
  // when empty. Error bound: within one sub-bucket of the true order
  // statistic, i.e. relative error < 1/kSubBuckets for values >=
  // kSubBuckets and exact below.
  uint64_t Quantile(double q) const;

  bool operator==(const HistogramData& other) const {
    return count == other.count && sum == other.sum && min == other.min &&
           max == other.max && buckets == other.buckets;
  }
};

// A process-lifetime latency histogram. Create through
// Registry::GetHistogram (obs/metrics.h); references are stable forever.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  // Ranges: values < kSubBuckets are exact (kSubBuckets buckets), then
  // one range of kSubBuckets buckets per remaining power of two.
  static constexpr uint32_t kNumBuckets =
      static_cast<uint32_t>((64 - kSubBucketBits + 1) * kSubBuckets);

  // Log-linear bucket math, exposed for tests and consumers re-deriving
  // bounds from serialized bucket indexes.
  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(uint32_t index);
  static uint64_t BucketUpperBound(uint32_t index);

  // Records one value (typically a latency in microseconds). Relaxed
  // atomics; safe from any thread.
  void Record(uint64_t value);

  // Consistent-enough snapshot (advisory under concurrent writes, exact
  // once writers are quiescent). Bucket list is index-sorted.
  HistogramData Snapshot() const;

  // Test isolation only.
  void Reset();

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

// Name-sorted (name, data) snapshot of every registered histogram, the
// distribution analogue of CounterSnapshot.
using HistogramSnapshot = std::vector<std::pair<std::string, HistogramData>>;

// RAII latency timer: records the scope's wall time into `histogram` in
// microseconds on destruction.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram& histogram);
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram& histogram_;
  uint64_t start_ns_;
};

}  // namespace aqo::obs

#endif  // AQO_OBS_HISTOGRAM_H_
