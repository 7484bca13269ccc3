#ifndef AQO_QO_FAST_EVAL_H_
#define AQO_QO_FAST_EVAL_H_

// Certified swap pricing for QO_N iterative improvement.
//
// The exact evaluator in qo/cost_eval.h is pinned to the naive code's
// left-to-right expression tree: LogDouble addition is log-sum-exp and is
// not associative, so the bit-identity contract forbids re-associating the
// cost fold, and a swap at positions (i, j) costs a Θ(n - i)-long suffix
// re-fold. QonNeighborhoodEvaluator deliberately gives that constraint up.
// It keeps every per-target quantity as flat structure-of-arrays of raw
// log2-domain doubles (access costs, masked-selectivity rows where a
// non-edge contributes an exactly representable +0.0, running min/sum
// prefix matrices), accumulates in the log domain with free
// re-association, and prices an arbitrary swap (i, j) of a loaded sequence
// in O((j - i) * n) after an O(n^2) Load: joins outside the swapped span
// reuse precomputed log-sum-exp partials.
//
// Correctness contract (docs/performance.md, "Ranked swaps in `ii`"):
//
//   |PriceSwap(i, j) - naive_log2(candidate)| <= EpsLog2()
//
// where naive_log2 is LogDouble::Log2() of the exact fold. The bound is a
// worst-case interval/ulp argument over the fold length: in real
// arithmetic log-sum-exp *is* associative, so re-association contributes
// nothing and the error is pure rounding — at most O(n^2) floating-point
// operations on either side, each perturbing the running log2 value by at
// most a few ulps of its magnitude, which is bounded by the per-instance
// constant A = sum |log2 t_v| + sum |log2 masked selectivities| +
// max |log2 access cost| + 1. EpsLog2() = C * n^2 * DBL_EPSILON * A with a
// generous constant C; tests/fast_eval_test.cc and tests/property_test.cc
// assert the bound for every swap pair at the sizes where `ii` ranks.
// Prices only ever *rank*: IterativeImprovementOptimizer skips the exact
// evaluation of a swap only when its price proves the exact cost is no
// better than the incumbent's, and re-prices everything else exactly.
//
// Telemetry: qo.fast_eval.neighborhoods counts Load calls,
// qo.fast_eval.candidates counts priced swaps. The `ii` loop adds
// qo.fast_eval.certified_rejects and qo.fast_eval.exact_repricings.
//
// Thread safety: same model as qo/cost_eval.h — one evaluator per
// optimizer run; the instance must outlive it.

#include <vector>

#include "qo/qon.h"

namespace aqo {

class QonNeighborhoodEvaluator {
 public:
  explicit QonNeighborhoodEvaluator(const QonInstance& inst);

  // Certified bound on |fast log2 cost - exact log2 cost| for any
  // candidate priced by this evaluator (see header comment).
  double EpsLog2() const { return eps_log2_; }

  // Lays out the swap-neighborhood state of `seq`: log2 prefix sizes,
  // running per-target min-access and selectivity-sum matrices, and
  // forward/backward log-sum-exp partials of the per-join terms. O(n^2).
  // Must be called before PriceSwap; call again whenever the base
  // sequence changes.
  void Load(const JoinSequence& seq);

  // Fast log2 cost of the candidate obtained by swapping positions i < j
  // of the loaded sequence. O((j - i) * n): terms outside (i-1, j+1) reuse
  // the loaded partials (their real value is unchanged by the swap — the
  // re-association freedom the exact evaluator does not have).
  double PriceSwap(int i, int j);

 private:
  int n_ = 0;
  double eps_log2_ = 0.0;
  // Instance data as raw log2 doubles, structure-of-arrays.
  std::vector<double> lt_;     // lt_[v] = log2 t_v
  std::vector<double> lwt_;    // lwt_[k*n+t] = log2 AccessCost(k, t); +inf diag
  std::vector<double> mselt_;  // mselt_[u*n+t] = edge(t,u) ? log2 sel(u,t) : +0.0
  // Loaded neighborhood state.
  bool loaded_ = false;
  JoinSequence seq_;
  std::vector<double> lp_;    // lp_[p] = log2 N(first p relations), p in [0,n]
  std::vector<double> mp_;    // mp_[p*n+t] = min_{q<p} lwt_[seq_[q]*n+t]
  std::vector<double> ps_;    // ps_[p*n+t] = sum_{q<p} mselt_[seq_[q]*n+t]
  std::vector<double> fwd_;   // fwd_[p] = lse(join terms 1..p); -inf at 0
  std::vector<double> bwd_;   // bwd_[p] = lse(join terms p..n-1); -inf at n
  // PriceSwap scratch row.
  std::vector<double> cur_min_;
};

}  // namespace aqo

#endif  // AQO_QO_FAST_EVAL_H_
