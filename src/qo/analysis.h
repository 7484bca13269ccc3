#ifndef AQO_QO_ANALYSIS_H_
#define AQO_QO_ANALYSIS_H_

// Plan diagnostics and alternative cost metrics.
//
// CostProfile materializes the H_i sequence of a plan (the object Lemmas 5
// and 6 reason about): peak location, rise/decay rates, and the share of
// the total carried by the peak.
//
// CoutSequenceCost is the C_out metric — the sum of intermediate result
// sizes — which much of the join-ordering literature (e.g. [2] in the
// paper, Cluet & Moerkotte) uses in place of the paper's access-cost-aware
// H model. Identity worth knowing: when every join is served by a perfect
// index (AccessCost(k, j) = t_j * s_kj, the default) along an edge of the
// query graph, H_i = N(X) * t_j * s_kj = N(X v_j): the H model *is* C_out.
// The two diverge exactly when scans (non-edges or overridden access
// costs) or multi-predicate selectivity stacking enter — which is what
// bench/cost_model_ablation measures. CoutOptimalCost computes its exact left-deep optimum (the
// extension cost N(S) depends only on the set, so the subset DP is
// order-free). bench/cost_model_ablation quantifies how much choosing one
// model and running under the other costs.

#include <vector>

#include "qo/optimizers.h"
#include "qo/qon.h"

namespace aqo {

struct CostProfile {
  std::vector<double> log2_h;  // H_1 .. H_{n-1}
  int peak_index = 0;          // 0-based into log2_h; paper position i+1
  double log2_total = 0.0;
  // max over i of lg(H_{i+1}) - lg(H_i) before/after the peak.
  double max_rise_violation = 0.0;   // > 0 means a dip before the peak
  double max_post_peak_rise = 0.0;   // > 0 means a rise after the peak
  // lg(total) - lg(H_peak): how much the sum exceeds its largest term
  // (Lemma 6 bounds this by lg(alpha) via the geometric-series argument).
  double log2_sum_over_peak = 0.0;
};

CostProfile ComputeCostProfile(const QonInstance& inst,
                               const JoinSequence& seq);

// C_out: sum over joins of the intermediate result size N(prefix).
LogDouble CoutSequenceCost(const QonInstance& inst, const JoinSequence& seq);

// Exact left-deep C_out optimum via subset DP (n <= kSubsetDpMaxRelations).
// The optional budget (checked per subset) makes it anytime: a
// cut-short run returns the deterministic min-next-intermediate greedy
// sequence, costed under C_out, as its best-so-far plan. The registry's
// `cout` entry (qo/registry.h) re-prices the plan under QO_N.
OptimizerResult CoutOptimalJoinOrder(const QonInstance& inst,
                                     const Budget& budget = {});

}  // namespace aqo

#endif  // AQO_QO_ANALYSIS_H_
