#include "util/stats.h"

#include <algorithm>

#include "util/check.h"

namespace aqo {

void StatAccumulator::Add(double x) {
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double SampleSet::Percentile(double p) const {
  AQO_CHECK(!samples_.empty());
  AQO_CHECK(0.0 <= p && p <= 100.0);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_[0];
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys) {
  AQO_CHECK(xs.size() == ys.size());
  AQO_CHECK(xs.size() >= 2);
  double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  LineFit fit;
  double denom = n * sxx - sx * sx;
  AQO_CHECK(denom != 0.0) << "degenerate x values";
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_tot = syy - sy * sy / n;
  if (ss_tot <= 0.0) {
    fit.r_squared = 1.0;
  } else {
    double ss_res = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double e = ys[i] - (fit.slope * xs[i] + fit.intercept);
      ss_res += e * e;
    }
    fit.r_squared = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

}  // namespace aqo
