#ifndef AQO_QO_QON_H_
#define AQO_QO_QON_H_

// The QO_N problem (paper Section 2.1): left-deep join-order optimization
// where every join is computed by the nested-loops method.
//
// An instance is (n, Q = (V,E), S, T, W): the query graph, selectivities
// and sizes of qo/join_graph.h, plus
//   * W — access-path costs: AccessCost(k, j) is the least cost of
//         solving the predicate between R_k and R_j for one given tuple of
//         R_k using the best access path of R_j. It is constrained to
//         [t_j * s_kj, t_j], and equals t_j when there is no predicate
//         (every tuple of R_j qualifies).
//
// The cost of join sequence Z = v_{z1} ... v_{zn} is
//   C(Z) = sum_{i=1}^{n-1} H_i(Z),
//   H_i(Z) = N(X) * min_{v_k in X} AccessCost(k, z_{i+1}),  X = z_1..z_i,
// where N(X) is the estimated intermediate size: the product of the member
// relation sizes and all selectivities internal to X (PrefixSizes).
//
// All sizes/selectivities/costs are LogDouble: the hardness instances of
// Section 4 have costs around alpha^{Theta(n^2)}.

#include <vector>

#include "qo/join_graph.h"

namespace aqo {

class QonInstance : public JoinGraph {
 public:
  QonInstance() = default;

  // Builds an instance with "default" access paths: AccessCost(k, j) is
  // t_j * s_kj for edges (a perfect index) and t_j for non-edges.
  // Selectivities are all 1 until SetSelectivity sets them per edge.
  QonInstance(Graph graph, std::vector<LogDouble> sizes);

  // Sets s_ij = s_ji; requires {i,j} to be an edge of the query graph and
  // 0 < s <= 1. Re-derives AccessCost(i, j) and AccessCost(j, i) to their
  // defaults, overridden or not: set overrides after selectivities.
  void SetSelectivity(int i, int j, LogDouble s);

  // Per-outer-tuple cost of probing R_j given a tuple of R_k.
  LogDouble AccessCost(int k, int j) const { return w_[Index(k, j)]; }
  // Row k of W: AccessCostRow(k)[j] == AccessCost(k, j). The diagonal
  // lane holds One(); no cost ever reads it.
  const LogDouble* AccessCostRow(int k) const {
    return w_.data() + Index(k, 0);
  }
  // Overrides the access cost; must satisfy t_j * s_kj <= w <= t_j.
  void SetAccessCost(int k, int j, LogDouble w);

 private:
  void ResetDefaultAccessCost(int k, int j);

  std::vector<LogDouble> w_;  // n*n, w_[k*n+j] = AccessCost(k, j)
};

// H_1 .. H_{n-1}; entry i-1 holds H_i(Z).
std::vector<LogDouble> QonJoinCosts(const QonInstance& inst,
                                    const JoinSequence& seq);

// C(Z) = sum of join costs.
LogDouble QonSequenceCost(const QonInstance& inst, const JoinSequence& seq);

}  // namespace aqo

#endif  // AQO_QO_QON_H_
