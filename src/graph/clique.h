#ifndef AQO_GRAPH_CLIQUE_H_
#define AQO_GRAPH_CLIQUE_H_

// The exact clique solver.
//
// The hardness pipeline needs ground truth about omega(G) on both sides of
// every reduction: YES instances must contain a clique of the promised size
// and NO instances must not. MaxClique is an exact Tomita-style branch &
// bound with a greedy-coloring bound. The tests' own helpers around it
// live in tests/graph_oracles.h.

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace aqo {

struct MaxCliqueResult {
  std::vector<int> clique;      // a maximum clique, sorted
  uint64_t nodes_explored = 0;  // search tree size
};

// Exact maximum clique (branch & bound, greedy coloring bound).
MaxCliqueResult MaxClique(const Graph& g);

}  // namespace aqo

#endif  // AQO_GRAPH_CLIQUE_H_
