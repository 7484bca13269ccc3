#ifndef AQO_UTIL_STATS_H_
#define AQO_UTIL_STATS_H_

// Small statistics helpers used by the benchmark harness: streaming
// mean accumulation, percentiles over retained samples, and a
// least-squares line fit used to estimate empirical growth exponents.

#include <cstddef>
#include <limits>
#include <vector>

namespace aqo {

// Streaming accumulator for count/mean/min/max.
class StatAccumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  // +inf / -inf respectively while empty, so an accumulator that never saw
  // a sample cannot masquerade as one that saw 0.0 (e.g. all-negative
  // streams must report a negative max).
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Retains samples; supports exact percentiles. Percentile sorts the
// retained samples in place the first time it is called and reuses that
// order until the next Add, so a run of percentile reads (p50/p90/p99 of
// the same set) costs one sort, not one per read.
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  size_t size() const { return samples_.size(); }
  // p in [0, 100]; linear interpolation between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  // Sample insertion order is not part of the interface, so Percentile
  // may reorder lazily behind const.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

// Ordinary least squares y = slope*x + intercept. Requires >= 2 points.
LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace aqo

#endif  // AQO_UTIL_STATS_H_
