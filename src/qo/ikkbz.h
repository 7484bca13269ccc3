#ifndef AQO_QO_IKKBZ_H_
#define AQO_QO_IKKBZ_H_

// The Ibaraki-Kameda / Krishnamurthy-Boral-Zaniolo (IK/KBZ) polynomial-time
// optimizer for *tree* query graphs ([1] and [6] in the paper). Section 6.3
// contrasts it with the hardness results: trees are optimizable in
// polynomial time, while adding Theta(m^tau) non-tree edges already makes
// polylog approximation NP-hard.
//
// Restricted to cartesian-product-free sequences on a tree query graph, the
// QO_N cost function has the adjacent-sequence-interchange (ASI) property:
// appending relation j (whose tree parent p is already placed) costs
// N(X) * C_j and scales the intermediate by T_j, with
//     C_j = AccessCost(p, j),      T_j = t_j * s_{pj},
// so C(Z) = t_root * sum_j (prod_{l before j} T_l) * C_j. IK/KBZ finds the
// optimal such sequence per root by rank-ordering with precedence
// constraints (chain merging + normalization), then takes the best root.
// O(n^2 log n) overall.

#include "qo/optimizers.h"
#include "qo/qon.h"

namespace aqo {

// Exact optimizer for tree query graphs (aborts when the graph is not a
// connected acyclic graph). Returns the optimal cartesian-product-free
// sequence. The optional budget is checked between roots: a
// cut-short run returns the best over the roots solved so far (always at
// least one, so the best-so-far plan is a complete sequence).
OptimizerResult IkkbzOptimizer(const QonInstance& inst,
                               const Budget& budget = {});

// True when the instance's query graph is a tree.
bool IsTreeQueryGraph(const Graph& g);

}  // namespace aqo

#endif  // AQO_QO_IKKBZ_H_
