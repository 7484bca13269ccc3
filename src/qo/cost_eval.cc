#include "qo/cost_eval.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace aqo {

namespace cost_eval_internal {
std::atomic<bool> g_force_naive{false};
}  // namespace cost_eval_internal

ScopedNaiveCostEvaluation::ScopedNaiveCostEvaluation()
    : previous_(cost_eval_internal::g_force_naive.exchange(true)) {}

ScopedNaiveCostEvaluation::~ScopedNaiveCostEvaluation() {
  cost_eval_internal::g_force_naive.store(previous_);
}

// --- QO_N ---------------------------------------------------------------

QonCostEvaluator::QonCostEvaluator(const QonInstance& inst)
    : inst_(&inst), n_(inst.NumRelations()) {
  size_t n = static_cast<size_t>(n_);
  wt_.resize(n * n);
  for (int k = 0; k < n_; ++k) {
    const LogDouble* row = inst.AccessCostRow(k);
    for (size_t t = 0; t < n; ++t) wt_[t * n + static_cast<size_t>(k)] = row[t];
  }
  seq_.resize(n);
  prefix_.resize(n + 1);
  run_cost_.resize(std::max<size_t>(n, 1));
  run_cost_[0] = LogDouble::Zero();
}

LogDouble QonCostEvaluator::EvaluateFrom(int first) {
  if (n_ == 0) return LogDouble::Zero();
  if (first == 0) prefix_[0] = LogDouble::One();
  const int* AQO_RESTRICT seq = seq_.data();
  for (int p = first; p < n_; ++p) {
    size_t sp = static_cast<size_t>(p);
    size_t sv = static_cast<size_t>(seq[sp]);
    if (p >= 1) {
      // H_p = N(prefix) * min_j AccessCost(seq[j], v), folded in position
      // order starting from position 0 — the QonJoinCosts association.
      // Raw log2 fold: MinOf keeps the left operand only when strictly
      // smaller, and equal log2 values here are bit-identical (no -0.0
      // sources), so the branch-free min matches LogDouble MinOf exactly.
      const LogDouble* AQO_RESTRICT wrow =
          wt_.data() + sv * static_cast<size_t>(n_);
      double mw = wrow[static_cast<size_t>(seq[0])].Log2();
      for (size_t j = 1; j < sp; ++j) {
        double c = wrow[static_cast<size_t>(seq[j])].Log2();
        mw = mw < c ? mw : c;
      }
      run_cost_[sp] = run_cost_[sp - 1] + prefix_[sp] * LogDouble::FromLog2(mw);
    }
    // N(prefix + v) = N(prefix) * t_v * (selectivities toward the prefix,
    // in position order) — the PrefixSizes association. Row v of S is
    // exactly log2 +0.0 off the edges, so the raw log2 fold needs no
    // adjacency branch: adding +0.0 is exact, keeping the sum
    // bit-identical to the gated product.
    const LogDouble* AQO_RESTRICT srow = inst_->SelectivityRow(seq[sp]);
    double next = prefix_[sp].Log2() + inst_->size(seq[sp]).Log2();
    for (size_t j = 0; j < sp; ++j) {
      next += srow[static_cast<size_t>(seq[j])].Log2();
    }
    prefix_[sp + 1] = LogDouble::FromLog2(next);
  }
  return run_cost_[static_cast<size_t>(n_) - 1];
}

LogDouble QonCostEvaluator::Cost(const JoinSequence& seq) {
  if (cost_eval_internal::ForceNaive()) {
    valid_ = false;
    return QonSequenceCost(*inst_, seq);
  }
  AQO_CHECK(static_cast<int>(seq.size()) == n_);
  AQO_DCHECK(IsPermutation(seq, n_));
  int first = 0;
  if (valid_) {
    while (first < n_ && seq[static_cast<size_t>(first)] ==
                             seq_[static_cast<size_t>(first)]) {
      ++first;
    }
    if (first == n_) {
      return n_ == 0 ? LogDouble::Zero()
                     : run_cost_[static_cast<size_t>(n_) - 1];
    }
  }
  std::copy(seq.begin() + first, seq.end(), seq_.begin() + first);
  valid_ = true;
  return EvaluateFrom(first);
}

LogDouble QonCostEvaluator::MinAccess(const std::vector<int>& prefix,
                                      int target) const {
  AQO_CHECK(!prefix.empty());
  if (cost_eval_internal::ForceNaive()) {
    LogDouble best = inst_->AccessCost(prefix[0], target);
    for (size_t i = 1; i < prefix.size(); ++i) {
      best = MinOf(best, inst_->AccessCost(prefix[i], target));
    }
    return best;
  }
  const LogDouble* wrow =
      wt_.data() + static_cast<size_t>(target) * static_cast<size_t>(n_);
  LogDouble best = wrow[static_cast<size_t>(prefix[0])];
  for (size_t i = 1; i < prefix.size(); ++i) {
    best = MinOf(best, wrow[static_cast<size_t>(prefix[i])]);
  }
  return best;
}

LogDouble QonCostEvaluator::MinAccessSeeded(LogDouble init,
                                            const std::vector<int>& prefix,
                                            int target) const {
  if (cost_eval_internal::ForceNaive()) {
    LogDouble best = init;
    for (int k : prefix) best = MinOf(best, inst_->AccessCost(k, target));
    return best;
  }
  const LogDouble* wrow =
      wt_.data() + static_cast<size_t>(target) * static_cast<size_t>(n_);
  LogDouble best = init;
  for (int k : prefix) best = MinOf(best, wrow[static_cast<size_t>(k)]);
  return best;
}

bool QonCostEvaluator::ConnectsTo(const std::vector<int>& prefix,
                                  int target) const {
  const DynamicBitset& adjacent = inst_->graph().Neighbors(target);
  for (int k : prefix) {
    if (adjacent.Test(k)) return true;
  }
  return false;
}

// --- QO_H ---------------------------------------------------------------

QohCostEvaluator::QohCostEvaluator(const QohInstance& inst)
    : inst_(&inst), n_(inst.NumRelations()) {
  AQO_CHECK(n_ >= 2) << "need at least two relations";
  total_joins_ = n_ - 1;
  size_t n = static_cast<size_t>(n_);
  memory_linear_ = inst.memory();
  memory_ = LogDouble::FromLinear(memory_linear_);
  rel_hjmin_.resize(n);
  rel_hjmin_lin_.resize(n);
  rel_inner_lin_.resize(n);
  rel_extra_cap_.resize(n);
  rel_denom_.resize(n);
  rel_build_infeasible_.resize(n);
  for (int t = 0; t < n_; ++t) {
    size_t st = static_cast<size_t>(t);
    LogDouble inner = inst.size(t);
    // Exactly the JoinShape fields of PipelineCostImpl that do not depend
    // on the outer stream, computed once per relation.
    LogDouble hjmin = inst.HashJoinMinMemory(inner);
    rel_hjmin_[st] = hjmin;
    rel_build_infeasible_[st] = hjmin > memory_ ? 1 : 0;
    rel_hjmin_lin_[st] = inst.HashJoinMinMemoryLinear(inner);
    rel_inner_lin_[st] = inner.Log2() <= 52.0
                             ? inner.ToLinear()
                             : std::numeric_limits<double>::infinity();
    rel_extra_cap_[st] = rel_inner_lin_[st] - rel_hjmin_lin_[st];
    // The naive code only ever forms inner - hjmin when extra capacity is
    // positive; mirror the branch so no new subtraction can trip.
    rel_denom_[st] = rel_extra_cap_[st] > 0.0 ? inner - hjmin
                                              : LogDouble::Zero();
  }
  seq_.resize(n);
  prefix_.resize(n + 1);
  size_t joins = static_cast<size_t>(total_joins_) + 1;  // 1-based
  join_opi_.resize(joins);
  join_h1_.resize(joins);
  join_slope_.resize(joins);
  join_inner_.resize(joins);
  join_hjmin_lin_.resize(joins);
  join_extra_cap_.resize(joins);
  join_infeasible_.resize(joins);
  dp_.resize(joins);
  parent_.assign(joins, 0);
  reachable_.assign(joins, 0);
  evals_pre_.assign(joins, 0);
  reachable_[0] = 1;
  dp_[0] = LogDouble::Zero();
  sorted_.resize(n);
  extra_.resize(n);
}

bool QohCostEvaluator::PipelineCost(int first, int last,
                                    const LogDouble* bound, LogDouble* cost) {
  // Memory floors, folded in join order like PipelineCostImpl. The naive
  // code compares only the final sum against the budget; since each
  // addend is non-negative, partial sums are monotone under
  // round-to-nearest, so bailing out as soon as a partial exceeds the
  // budget reaches the identical feasibility verdict.
  double floor_sum = 0.0;
  for (int j = first; j <= last; ++j) {
    floor_sum += join_hjmin_lin_[static_cast<size_t>(j)];
    if (floor_sum > memory_linear_) return false;
  }

  // Greedy continuous allocation in decreasing slope order, equal slopes
  // toward the earlier join. The comparator is a strict *total* order, so
  // the sorted permutation is unique — the incrementally maintained
  // sorted_ (see EvaluateFrom) is exactly what PipelineCostImpl's
  // std::sort would produce, and walking it replays the allocator
  // operand for operand.
  double budget = memory_linear_ - floor_sum;
  size_t len = static_cast<size_t>(last - first + 1);
  std::fill(extra_.begin() + first, extra_.begin() + last + 1, 0.0);
  for (size_t i = 0; i < len; ++i) {
    if (budget <= 0.0) break;
    size_t idx = static_cast<size_t>(sorted_[i]);
    double want = std::min(budget, join_extra_cap_[idx]);
    if (want <= 0.0) continue;
    extra_[idx] = want;
    budget -= want;
  }

  // The cost fold, with a sound early exit: every addend is a non-negative
  // LogDouble and operator+ never rounds below its larger operand, so the
  // partial sums are monotone non-decreasing bit-for-bit. The moment a
  // partial strictly exceeds `bound` (the DP incumbent), the full cost —
  // and a fortiori dp_[i-1] + cost — strictly exceeds it too; the naive
  // code would finish the fold and then reject the candidate, so stopping
  // here reaches the identical DP outcome without the remaining
  // log-sum-exp work.
  LogDouble c = prefix_[static_cast<size_t>(first)] +
                prefix_[static_cast<size_t>(last) + 1];
  if (bound != nullptr && c > *bound) return false;
  for (int j = first; j <= last; ++j) {
    size_t sj = static_cast<size_t>(j);
    double g = 0.0;
    if (join_extra_cap_[sj] > 0.0) {
      g = std::clamp(1.0 - extra_[sj] / join_extra_cap_[sj], 0.0, 1.0);
    }
    // g is clamped to [0, 1] and is exactly 0.0 or 1.0 for every join
    // that is fully granted or not granted at all — the common cases —
    // and both admit a bit-exact shortcut for opi * FromLinear(g) + inner:
    //   g == 0: opi * Zero() is Zero(), and Zero() + inner returns inner
    //           verbatim (operator+'s IsZero branch), so the term is
    //           join_inner_ itself.
    //   g == 1: FromLinear(1.0) is One() bit for bit (IEEE log2(1.0) is
    //           +0.0) and opi * One() adds +0.0 to an exponent that is
    //           never -0.0 (it comes out of operator+'s hi + positive),
    //           so the term is the precomputed join_h1_ = opi + inner.
    // Only fractional grants pay the log2 and the extra log-sum-exp.
    LogDouble term;
    if (g == 0.0) {
      term = join_inner_[sj];
    } else if (g == 1.0) {
      term = join_h1_[sj];
    } else {
      term = join_opi_[sj] * LogDouble::FromLinear(g) + join_inner_[sj];
    }
    c += term;
    if (bound != nullptr && c > *bound) return false;
  }
  *cost = c;
  return true;
}

void QohCostEvaluator::EvaluateFrom(int first_pos) {
  // Prefix sizes: the PrefixSizes fold, resumed at first_pos.
  if (first_pos == 0) prefix_[0] = LogDouble::One();
  for (size_t p = static_cast<size_t>(first_pos); p < seq_.size(); ++p) {
    prefix_[p + 1] = inst_->ExtendSize(prefix_[p], {seq_.data(), p}, seq_[p]);
  }
  // Join shapes: join j (inner seq_[j], outer prefix_[j]) is unaffected by
  // a change at position `first_pos` exactly when j < first_pos.
  int first_join = std::max(first_pos, 1);
  for (int j = first_join; j <= total_joins_; ++j) {
    size_t sj = static_cast<size_t>(j);
    size_t sv = static_cast<size_t>(seq_[sj]);
    LogDouble inner = inst_->size(seq_[sj]);
    join_inner_[sj] = inner;
    join_hjmin_lin_[sj] = rel_hjmin_lin_[sv];
    join_extra_cap_[sj] = rel_extra_cap_[sv];
    join_infeasible_[sj] = rel_build_infeasible_[sv];
    join_opi_[sj] = prefix_[sj] + inner;
    join_h1_[sj] = join_opi_[sj] + inner;
    join_slope_[sj] = rel_extra_cap_[sv] > 0.0
                          ? join_opi_[sj] / rel_denom_[sv]
                          : LogDouble::Zero();
  }
  // DP over break points, bit-identical to the OptimalDecomposition
  // transitions; dp_/parent_/reachable_ for k < first_join are reused
  // verbatim (they depend only on joins < first_join). Transitions into k
  // run with i *descending* so pipeline (i..k) grows at the front and
  // sorted_ can be maintained by insertion instead of a per-pipeline
  // std::sort — the slope comparator is a strict total order, so the
  // permutation is the same either way. Result equivalence with the
  // naive ascending loop: dp_[k] is the min over the same candidate set
  // (min is order-independent), and the `<=` update below makes the
  // smallest i win exact ties, matching first-wins under ascending `<`.
  for (int k = first_join; k <= total_joins_; ++k) {
    size_t sk = static_cast<size_t>(k);
    uint64_t evals = 0;
    size_t sorted_len = 0;
    bool has_infeasible_join = false;
    bool any = false;
    LogDouble best;
    int best_parent = 0;
    for (int i = k; i >= 1; --i) {
      size_t si = static_cast<size_t>(i);
      if (join_infeasible_[si]) {
        // Every pipeline from here on contains this join, so none can be
        // feasible (PipelineCostImpl rejects them one by one; we reject
        // them wholesale). Evaluations are still counted per reachable i.
        has_infeasible_join = true;
      } else if (!has_infeasible_join) {
        // Insert join i into the slope order. It has the smallest index
        // in the pipeline, so among equal slopes it goes first.
        int* begin = sorted_.data();
        int* pos = std::partition_point(begin, begin + sorted_len, [&](int j) {
          return join_slope_[static_cast<size_t>(j)] > join_slope_[si];
        });
        std::memmove(pos + 1, pos,
                     static_cast<size_t>(begin + sorted_len - pos) *
                         sizeof(int));
        *pos = i;
        ++sorted_len;
      }
      if (!reachable_[si - 1]) continue;
      ++evals;
      if (has_infeasible_join) continue;
      // frag_cost is a sum of non-negative LogDoubles, and LogDouble's +
      // never rounds below its larger operand, so candidate >= dp_[i-1]
      // bit-for-bit: when dp_[i-1] > best the candidate cannot win (not
      // even a tie), and the pipeline evaluation can be skipped outright.
      if (any && dp_[si - 1] > best) continue;
      LogDouble frag_cost;
      if (!PipelineCost(i, k, any ? &best : nullptr, &frag_cost)) continue;
      LogDouble candidate = dp_[si - 1] + frag_cost;
      if (!any || candidate <= best) {
        any = true;
        best = candidate;
        best_parent = i;
      }
    }
    reachable_[sk] = any ? 1 : 0;
    if (any) {
      dp_[sk] = best;
      parent_[sk] = best_parent;
    }
    evals_pre_[sk] = evals_pre_[sk - 1] + evals;
  }

  std::vector<int>& starts = plan_.decomposition.starts;
  starts.clear();
  if (!reachable_[static_cast<size_t>(total_joins_)]) {
    plan_.feasible = false;
    plan_.cost = LogDouble::Zero();
    return;
  }
  for (int k = total_joins_; k > 0; k = parent_[static_cast<size_t>(k)] - 1) {
    starts.push_back(parent_[static_cast<size_t>(k)]);
  }
  std::reverse(starts.begin(), starts.end());
  plan_.feasible = true;
  plan_.cost = dp_[static_cast<size_t>(total_joins_)];
}

const QohPlan& QohCostEvaluator::Evaluate(const JoinSequence& seq) {
  if (cost_eval_internal::ForceNaive()) {
    valid_ = false;
    plan_ = OptimalDecomposition(*inst_, seq);
    return plan_;
  }
  // Same counters, incremented by the same per-call amounts, as
  // OptimalDecomposition — run-log counter deltas must not change.
  static obs::Counter& calls =
      obs::Registry::Get().GetCounter("qoh.decomp.calls");
  static obs::Counter& pipeline_evals =
      obs::Registry::Get().GetCounter("qoh.decomp.pipeline_evals");
  static obs::Counter& fragments =
      obs::Registry::Get().GetCounter("qoh.decomp.fragments");
  calls.Increment();
  AQO_CHECK(static_cast<int>(seq.size()) == n_);
  AQO_DCHECK(IsPermutation(seq, n_));
  int first = 0;
  if (valid_) {
    while (first < n_ && seq[static_cast<size_t>(first)] ==
                             seq_[static_cast<size_t>(first)]) {
      ++first;
    }
  }
  if (!valid_ || first < n_) {
    std::copy(seq.begin() + first, seq.end(), seq_.begin() + first);
    EvaluateFrom(valid_ ? first : 0);
    valid_ = true;
  }
  // The naive code re-runs the full DP every call, so the logical (and
  // reported) evaluation count is the total, not just the recomputed tail.
  pipeline_evals.Add(evals_pre_[static_cast<size_t>(total_joins_)]);
  if (plan_.feasible) fragments.Add(plan_.decomposition.starts.size());
  return plan_;
}

}  // namespace aqo
