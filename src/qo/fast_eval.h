#ifndef AQO_QO_FAST_EVAL_H_
#define AQO_QO_FAST_EVAL_H_

// Swap pricing for QO_N iterative improvement.
//
// The exact evaluator in qo/cost_eval.h is pinned to the naive code's
// left-to-right expression tree: LogDouble addition is log-sum-exp and is
// not associative, so the bit-identity contract forbids re-associating the
// cost fold, and a swap at positions (i, j) costs a Θ(n - i)-long suffix
// re-fold. QonNeighborhoodEvaluator keeps running min/sum prefix matrices
// of raw log2-domain doubles over the instance's own k-major rows of W
// and S (a non-edge lane of S is exactly log2 +0.0, so adding a whole row
// is branch-free), and prices an arbitrary swap (i, j) of a loaded
// sequence after an O(n^2) Load by walking only the changed span in
// O((j - i) * n).
//
// The constructor puts each instance in one of two regimes; the contract
// differs (docs/performance.md, "Ranked swaps in `ii`"):
//
//  * Integer regime, EpsLog2() == 0: every log2 size, edge selectivity
//    and off-diagonal access cost is an integer, and the magnitude bound
//    A below is at most 2^52. Every prefix sum either evaluator forms is
//    then an integer of magnitude at most 2^53, so exact in any
//    association, and the per-join terms here are QonCostEvaluator's H_p
//    bit for bit. PriceSwap folds them in the exact evaluator's order
//    with the same log-sum-exp (LogAddExp2, util/log_double.h): the
//    price has the exact cost's bits. The joins after j keep their
//    terms, so the fold stops early once it meets the loaded fold. The
//    f_N instances of the gap tables (reductions/clique_to_qon.h) are in
//    this regime.
//
//  * Otherwise, the certified bound
//
//      |PriceSwap(i, j) - naive_log2(candidate)| <= EpsLog2()
//
//    where naive_log2 is LogDouble::Log2() of the exact fold. The price
//    re-associates: joins after the span reuse a precomputed backward
//    log-sum-exp partial. The bound is a worst-case interval/ulp argument
//    over the fold length: in real arithmetic log-sum-exp *is*
//    associative, so re-association contributes nothing and the error is
//    pure rounding — at most O(n^2) floating-point operations on either
//    side, each perturbing the running log2 value by at most a few ulps
//    of its magnitude, which is bounded by the per-instance constant
//    A = sum |log2 t_v| + sum |log2 masked selectivities| +
//    max |log2 access cost| + 1. EpsLog2() = C * n^2 * DBL_EPSILON * A
//    with a generous constant C.
//
// tests/fast_eval_test.cc checks both contracts for every swap pair at the
// sizes where `ii` ranks, and tests/property_test.cc sweeps the bound.
// Prices only ever *rank*: IterativeImprovementOptimizer skips the exact
// evaluation of a swap only when its price proves the exact cost is no
// better than the incumbent's (price >= current + EpsLog2()), and
// re-prices everything else exactly. In the integer regime that leaves
// only the improvements, and the loop checks each price against the
// exact cost's bits.
//
// Telemetry: qo.fast_eval.neighborhoods counts Load calls,
// qo.fast_eval.candidates counts priced swaps. The `ii` loop adds
// qo.fast_eval.certified_rejects and qo.fast_eval.exact_repricings.
//
// Thread safety: same model as qo/cost_eval.h — one evaluator per
// optimizer run; the instance must outlive it, unmodified.

#include <vector>

#include "qo/qon.h"

namespace aqo {

class QonNeighborhoodEvaluator {
 public:
  explicit QonNeighborhoodEvaluator(const QonInstance& inst);

  // Bound on |price - exact log2 cost| for any candidate priced by this
  // evaluator: 0 in the integer regime, where prices are exact, and the
  // certified bound otherwise (see header comment).
  double EpsLog2() const { return eps_log2_; }

  // Lays out the swap-neighborhood state of `seq`: log2 prefix sizes,
  // running per-target min-access and selectivity-sum matrices, the
  // per-join terms, and their forward (and, outside the integer regime,
  // backward) log-sum-exp partials. O(n^2).
  // Must be called before PriceSwap; call again whenever the base
  // sequence changes.
  void Load(const JoinSequence& seq);

  // Log2 cost of the candidate obtained by swapping positions i < j of the
  // loaded sequence: exact in the integer regime, within EpsLog2()
  // otherwise. O((j - i) * n) for the span; the joins after j reuse the
  // loaded terms (their real value is unchanged by the swap) — a left
  // fold until it meets the loaded one in the integer regime, one
  // precomputed backward partial otherwise.
  double PriceSwap(int i, int j);

 private:
  const QonInstance* inst_;
  int n_ = 0;
  bool exact_ = false;  // integer regime
  double eps_log2_ = 0.0;
  // Loaded neighborhood state. The row kernels compute every lane, the
  // diagonal ones (a relation's own W and S entries) included, but no
  // price reads a lane of a relation already in the prefix.
  bool loaded_ = false;
  JoinSequence seq_;
  std::vector<double> lp_;  // lp_[p] = log2 N(first p relations), p in [0,n]
  // mp_[p*n+t] = min_{q<p} log2 AccessCost(seq_[q], t)
  std::vector<double> mp_;
  // ps_[p*n+t] = sum_{q<p} log2 selectivity(seq_[q], t)
  std::vector<double> ps_;
  std::vector<double> term_;  // term_[p] = log2 H_p, the join term at p >= 1
  std::vector<double> fwd_;   // fwd_[p] = lse(join terms 1..p); -inf at 0
  std::vector<double> bwd_;   // bwd_[p] = lse(join terms p..n-1); -inf at n;
                              // empty in the integer regime
  // PriceSwap scratch row.
  std::vector<double> cur_min_;
};

}  // namespace aqo

#endif  // AQO_QO_FAST_EVAL_H_
