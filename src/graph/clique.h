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
  std::vector<int> clique;      // vertices of the best clique found, sorted
  uint64_t nodes_explored = 0;  // search tree size
  bool exact = true;            // false when the node limit stopped the search
};

// Exact maximum clique (branch & bound, greedy coloring bound). When
// `node_limit` > 0 the search aborts after that many nodes and reports the
// incumbent with exact=false. When `target` > 0 the search additionally
// stops as soon as a clique of at least `target` vertices is found (the
// result is then a witness, not necessarily maximum).
MaxCliqueResult MaxClique(const Graph& g, uint64_t node_limit = 0,
                          int target = 0);

}  // namespace aqo

#endif  // AQO_GRAPH_CLIQUE_H_
