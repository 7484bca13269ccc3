#include "qo/analysis.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace aqo {

CostProfile ComputeCostProfile(const QonInstance& inst,
                               const JoinSequence& seq) {
  std::vector<LogDouble> h = QonJoinCosts(inst, seq);
  AQO_CHECK(!h.empty());
  CostProfile profile;
  profile.log2_h.reserve(h.size());
  LogDouble total = LogDouble::Zero();
  for (size_t i = 0; i < h.size(); ++i) {
    profile.log2_h.push_back(h[i].Log2());
    total += h[i];
    if (h[i] > h[static_cast<size_t>(profile.peak_index)]) {
      profile.peak_index = static_cast<int>(i);
    }
  }
  profile.log2_total = total.Log2();
  profile.log2_sum_over_peak =
      total.Log2() - profile.log2_h[static_cast<size_t>(profile.peak_index)];
  for (size_t i = 1; i < profile.log2_h.size(); ++i) {
    double step = profile.log2_h[i] - profile.log2_h[i - 1];
    if (static_cast<int>(i) <= profile.peak_index) {
      profile.max_rise_violation =
          std::max(profile.max_rise_violation, -step);
    } else {
      profile.max_post_peak_rise =
          std::max(profile.max_post_peak_rise, step);
    }
  }
  return profile;
}

LogDouble CoutSequenceCost(const QonInstance& inst, const JoinSequence& seq) {
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  LogDouble total = LogDouble::Zero();
  for (size_t k = 2; k < prefix.size(); ++k) total += prefix[k];
  return total;
}

namespace {

// Anytime fallback for a C_out DP cut short mid-table: greedy
// min-next-intermediate construction (the natural C_out greedy), a pure
// function of the instance. Starts from the smallest relation; all ties
// break toward the lowest relation id.
OptimizerResult CoutGreedyCutShort(const QonInstance& inst, PlanStatus status,
                                   uint64_t dp_evaluations) {
  int n = inst.NumRelations();
  OptimizerResult result;
  int first = 0;
  for (int j = 1; j < n; ++j) {
    if (inst.size(j) < inst.size(first)) first = j;
  }
  JoinSequence seq = {first};
  std::vector<bool> placed(static_cast<size_t>(n), false);
  placed[static_cast<size_t>(first)] = true;
  LogDouble intermediate = inst.size(first);
  while (static_cast<int>(seq.size()) < n) {
    int best_j = -1;
    LogDouble best_next;
    for (int j = 0; j < n; ++j) {
      if (placed[static_cast<size_t>(j)]) continue;
      LogDouble next = inst.ExtendSize(intermediate, seq, j);
      if (best_j < 0 || next < best_next) {
        best_j = j;
        best_next = next;
      }
    }
    seq.push_back(best_j);
    placed[static_cast<size_t>(best_j)] = true;
    intermediate = best_next;
  }
  result.feasible = true;
  result.sequence = seq;
  result.cost = CoutSequenceCost(inst, seq);
  result.evaluations = dp_evaluations + static_cast<uint64_t>(n) - 1;
  result.status = status;
  return result;
}

}  // namespace

OptimizerResult CoutOptimalJoinOrder(const QonInstance& inst,
                                     const Budget& budget) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= kSubsetDpMaxRelations) << "subset DP is 2^n";
  RunGuard guard(budget);
  size_t full = (size_t{1} << n) - 1;

  std::vector<LogDouble> subset_size = SubsetSizes(inst);

  // C_out extension cost is N(S union {j}) = subset_size of the new set:
  // dp[S] = min_j dp[S \ {j}] + N(S) for |S| >= 2.
  std::vector<LogDouble> dp(full + 1);
  std::vector<int8_t> last(full + 1, -1);
  OptimizerResult result;
  for (size_t mask = 1; mask <= full; ++mask) {
    if (guard.ShouldStop(result.evaluations)) {
      return CoutGreedyCutShort(inst, guard.status(), result.evaluations);
    }
    int bits = std::popcount(mask);
    if (bits == 1) {
      dp[mask] = LogDouble::Zero();
      last[mask] = static_cast<int8_t>(std::countr_zero(mask));
      continue;
    }
    bool first = true;
    for (size_t m = mask; m != 0; m &= m - 1) {
      int j = std::countr_zero(m);
      LogDouble cand = dp[mask & ~(size_t{1} << j)];
      ++result.evaluations;
      if (first || cand < dp[mask]) {
        dp[mask] = cand;
        last[mask] = static_cast<int8_t>(j);
        first = false;
      }
    }
    dp[mask] += subset_size[mask];
  }

  result.feasible = true;
  result.cost = dp[full];
  JoinSequence seq;
  size_t mask = full;
  while (mask != 0) {
    int j = last[mask];
    seq.push_back(j);
    mask &= ~(size_t{1} << j);
  }
  std::reverse(seq.begin(), seq.end());
  result.sequence = seq;
  AQO_CHECK(CoutSequenceCost(inst, seq).ApproxEquals(result.cost, 1e-6));
  return result;
}

}  // namespace aqo
