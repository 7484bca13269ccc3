#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <chrono>

namespace aqo::obs {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

uint32_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<uint32_t>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBucketBits;
  return static_cast<uint32_t>((msb - kSubBucketBits + 1) * kSubBuckets +
                               ((value >> shift) - kSubBuckets));
}

uint64_t Histogram::BucketLowerBound(uint32_t index) {
  if (index < kSubBuckets) return index;
  uint32_t range = index / static_cast<uint32_t>(kSubBuckets);
  uint64_t sub = index % kSubBuckets;
  return (kSubBuckets + sub) << (range - 1);
}

uint64_t Histogram::BucketUpperBound(uint32_t index) {
  if (index < kSubBuckets) return index;
  uint32_t range = index / static_cast<uint32_t>(kSubBuckets);
  return BucketLowerBound(index) + ((uint64_t{1} << (range - 1)) - 1);
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // In steady state the extrema rarely move: one relaxed load and a
  // never-taken branch each. The CAS loop runs only while a new extreme
  // races in.
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) {
      data.buckets.emplace_back(i, c);
      data.count += c;
    }
  }
  data.sum = sum_.load(std::memory_order_relaxed);
  if (data.count != 0) {
    data.min = min_.load(std::memory_order_relaxed);
    data.max = max_.load(std::memory_order_relaxed);
  }
  return data;
}

void Histogram::Reset() {
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

uint64_t HistogramData::Quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target order statistic, 1-based.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (const auto& [index, c] : buckets) {
    cumulative += c;
    if (cumulative >= rank) {
      uint64_t v = Histogram::BucketUpperBound(index);
      // The true value lies inside this bucket; the recorded extrema can
      // only tighten the bound.
      return std::min(std::max(v, min), max);
    }
  }
  return max;
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram& histogram)
    : histogram_(histogram), start_ns_(NowNanos()) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  histogram_.Record((NowNanos() - start_ns_) / 1000);
}

}  // namespace aqo::obs
