#ifndef AQO_QO_JOIN_GRAPH_H_
#define AQO_QO_JOIN_GRAPH_H_

// The query both problems are defined over (paper Sections 2.1 and 2.2):
//   * Q — undirected query graph; an edge means a join predicate.
//   * T — relation sizes t_i in tuples (pages), all > 0.
//   * S — symmetric selectivity matrix: s_ij in (0, 1] on the edges and
//         exactly 1 everywhere else, the diagonal included.
// and the intermediate size of a relation set X,
//   N(X) = prod_{i in X} t_i * prod_{{i,j} in E, i,j in X} s_ij,
// in the three folds the cost models and optimizers need: ExtendSize (one
// relation onto a prefix), PrefixSizes (every prefix of a sequence) and
// SubsetSizes (every relation set, for the subset DPs). Each fold
// multiplies in one fixed order, so every caller of a fold gets the same
// bits.
//
// QonInstance (qo/qon.h) adds the access-path costs W, QohInstance
// (qo/qoh.h) the memory budget and eta. JoinGraph is their shared base
// only: its constructors, its one mutator and its assignments are
// protected, so a JoinGraph& reads an instance but cannot change it behind
// the family's back (QonInstance re-derives W whenever a selectivity
// changes). Sizes are fixed at construction. The constructor and
// SetSelectivity enforce every invariant above.

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "qo/join_sequence.h"
#include "util/log_double.h"

namespace aqo {

class JoinGraph {
 public:
  int NumRelations() const { return graph_.NumVertices(); }
  const Graph& graph() const { return graph_; }

  LogDouble size(int i) const { return sizes_[static_cast<size_t>(i)]; }
  LogDouble selectivity(int i, int j) const { return sel_[Index(i, j)]; }
  // Row i of S: SelectivityRow(i)[j] == selectivity(i, j). S is symmetric,
  // so the row is column i too, and its non-edge lanes are exactly One()
  // (log2 +0.0): a raw log2 fold may add a whole row without branching on
  // adjacency.
  const LogDouble* SelectivityRow(int i) const {
    return sel_.data() + Index(i, 0);
  }

  // N(X + target) from intermediate = N(X), X given as `prefix`:
  // intermediate * t_target, then times the selectivity of each prefix
  // relation joined to target by an edge, in prefix order.
  LogDouble ExtendSize(LogDouble intermediate, std::span<const int> prefix,
                       int target) const {
    LogDouble next = intermediate * size(target);
    const DynamicBitset& adjacent = graph_.Neighbors(target);
    const LogDouble* row = SelectivityRow(target);
    for (int k : prefix) {
      if (adjacent.Test(k)) next *= row[static_cast<size_t>(k)];
    }
    return next;
  }

 protected:
  JoinGraph() = default;
  // Every selectivity starts at 1; requires one size > 0 per vertex.
  JoinGraph(Graph graph, std::vector<LogDouble> sizes);
  // Protected so that nothing can assign over a family's instance through
  // a JoinGraph&; declaring the assignments requires declaring the rest.
  JoinGraph(const JoinGraph&) = default;
  JoinGraph(JoinGraph&&) = default;
  JoinGraph& operator=(const JoinGraph&) = default;
  JoinGraph& operator=(JoinGraph&&) = default;

  // Sets s_ij = s_ji; requires {i, j} to be an edge and 0 < s <= 1.
  void SetSelectivity(int i, int j, LogDouble s);

  size_t Index(int i, int j) const {
    AQO_DCHECK(0 <= i && i < NumRelations());
    AQO_DCHECK(0 <= j && j < NumRelations());
    return static_cast<size_t>(i) * static_cast<size_t>(NumRelations()) +
           static_cast<size_t>(j);
  }

 private:
  Graph graph_;
  std::vector<LogDouble> sizes_;
  std::vector<LogDouble> sel_;  // n*n, row-major
};

// N(first p relations of seq) for p = 0..n; entry 0 is One(). Entry p+1
// is ExtendSize(entry p, seq[0..p), seq[p]).
std::vector<LogDouble> PrefixSizes(const JoinGraph& g,
                                   const JoinSequence& seq);

// N(X) for every relation set X, indexed by bitmask; entry 0 is One().
// N(X) is N(X minus its lowest relation j) * t_j, then times the
// selectivities toward j in ascending relation order. The table has 2^n
// entries; callers bound n (kSubsetDpMaxRelations).
std::vector<LogDouble> SubsetSizes(const JoinGraph& g);

}  // namespace aqo

#endif  // AQO_QO_JOIN_GRAPH_H_
