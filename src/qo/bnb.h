#ifndef AQO_QO_BNB_H_
#define AQO_QO_BNB_H_

// Branch & bound exact optimizer for QO_N.
//
// Depth-first search over left-deep prefixes with three prunes:
//   * cost prune: partial cost already >= incumbent (all H_i are positive);
//   * dominance prune: the same relation *set* was reached cheaper before
//     (extension cost depends on the set only, as in the subset DP);
//   * child ordering: extensions explored cheapest-next-join first, with a
//     greedy incumbent up front.
// Unlike the subset DP it does not materialize 2^n states — on benign
// instances the dominance table stays small and instances well beyond the
// DP's kSubsetDpMaxRelations memory wall solve exactly. options.budget
// turns it into an anytime heuristic: every search node counts as one
// evaluation, and a cut run returns the best plan found so far with a
// status other than kComplete. A feasible kComplete result is optimal.

#include "qo/optimizers.h"
#include "qo/qon.h"

namespace aqo {

// Relation sets are 64-bit masks; the search CHECK-fails above this.
inline constexpr int kBnbMaxRelations = 62;

OptimizerResult BranchAndBoundQonOptimizer(
    const QonInstance& inst, const OptimizerOptions& options = {});

}  // namespace aqo

#endif  // AQO_QO_BNB_H_
