#ifndef AQO_QO_QOH_H_
#define AQO_QO_QOH_H_

// The QO_H problem (paper Section 2.2): join sequences executed as a chain
// of pipelined hash joins under a global memory budget M.
//
// Execution model. A join sequence Z is split into contiguous fragments
// (pipelines). Within a pipeline, each join builds a hash table on its
// *inner* base relation R_{z_{j+1}} and probes it with the stream arriving
// from the previous join; the fragment's input is read from disk and its
// output is materialized to disk.
//
// Cost model. The I/O cost of one hash join with outer size b_R, inner size
// b_S, and memory m is
//     h(m, b_R, b_S) = (b_R + b_S) * g(m, b_S) + b_S,    m >= hjmin(b_S),
// where hjmin(b) = ceil(b^eta) (eta in (0,1), paper: Theta(b^eta)) and g is
// the concrete instantiation
//     g(m, b) = (b - m) / (b - hjmin(b))   clamped to [0, 1]
// which satisfies the paper's axioms: linear decreasing on [hjmin, b], zero
// for m >= b, continuous, and g(hjmin, b) = 1 = Theta(1).
//
// The cost of executing pipeline P(Z, i, k) under a memory allocation is
//     N_{i-1}(Z) + sum_{j=i..k} h(m_j, N_{j-1}(Z), t_{z_{j+1}}) + N_k(Z),
// subject to sum_j m_j <= M and m_j >= hjmin(t_{z_{j+1}}).
//
// Numeric split. Intermediate sizes N_j are astronomically large and are
// carried as LogDouble. Memory amounts are *linear* doubles: the optimal
// allocator must distinguish budgets that differ by a single hjmin(t),
// which log-domain arithmetic cannot. Any relation whose hash table would
// need to fit in memory must therefore have size <= 2^52 pages; relations
// larger than that (like the paper's sentinel R_0 with t_0 = (n t)^12) can
// never be an inner relation of a feasible pipeline — which is exactly the
// role the construction gives them.

#include <optional>
#include <vector>

#include "qo/join_graph.h"

namespace aqo {

// The query graph, sizes and selectivities of qo/join_graph.h, plus the
// memory budget M and hjmin's eta. N(prefix) is PrefixSizes, as in QO_N.
class QohInstance : public JoinGraph {
 public:
  QohInstance() = default;

  // `memory` is the budget M in pages, finite and > 0; `eta` in (0, 1)
  // parameterizes hjmin.
  QohInstance(Graph graph, std::vector<LogDouble> sizes, double memory,
              double eta = 0.5);

  // Requires an edge and 0 < s <= 1.
  using JoinGraph::SetSelectivity;

  double memory() const { return memory_; }
  double eta() const { return eta_; }

  // hjmin(b) = ceil(b^eta).
  LogDouble HashJoinMinMemory(LogDouble pages) const;
  // Same, in linear pages (exact whenever it fits a double; +inf when the
  // exponent exceeds double range — certainly above any budget).
  double HashJoinMinMemoryLinear(LogDouble pages) const;

 private:
  double memory_ = 0.0;
  double eta_ = 0.5;
};

// A pipeline decomposition of the n-1 joins of a sequence: fragment f
// covers joins [starts[f], starts[f+1]-1] in 1-based join indices;
// starts[0] == 1 and an implicit end at n-1.
struct PipelineDecomposition {
  std::vector<int> starts;  // increasing, first element 1

  int NumFragments() const { return static_cast<int>(starts.size()); }
  // [first_join, last_join] of fragment f, 1-based, given total join count.
  std::pair<int, int> Fragment(int f, int total_joins) const;
};

struct PipelineCostResult {
  bool feasible = false;
  LogDouble cost;  // meaningful only when feasible
  // Memory given to each join of the pipeline, aligned with join order.
  std::vector<double> allocation;
};

// Cost of executing joins [first_join, last_join] (1-based) of `seq` as one
// pipeline under the *optimal* memory allocation (continuous greedy, which
// is exact because each join's cost is linear in its memory grant).
// Infeasible when the minimum memory requirements alone exceed M or some
// inner hash table cannot be built at all.
PipelineCostResult OptimalPipelineCost(const QohInstance& inst,
                                       const JoinSequence& seq, int first_join,
                                       int last_join);

// Total cost of a given decomposition (sum of fragment costs), with
// optimal memory allocation inside every fragment.
PipelineCostResult DecompositionCost(const QohInstance& inst,
                                     const JoinSequence& seq,
                                     const PipelineDecomposition& decomp);

struct QohPlan {
  bool feasible = false;
  LogDouble cost;
  PipelineDecomposition decomposition;
};

// Optimal pipeline decomposition of `seq` by dynamic programming over
// break points (O(n^2) pipeline evaluations).
QohPlan OptimalDecomposition(const QohInstance& inst, const JoinSequence& seq);

}  // namespace aqo

#endif  // AQO_QO_QOH_H_
