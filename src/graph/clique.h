#ifndef AQO_GRAPH_CLIQUE_H_
#define AQO_GRAPH_CLIQUE_H_

// Clique solvers.
//
// The hardness pipeline needs ground truth about omega(G) on both sides of
// every reduction: YES instances must contain a clique of the promised size
// and NO instances must not. MaxClique is an exact Tomita-style branch &
// bound with a greedy-coloring bound; GreedyClique is a cheap randomized
// heuristic that only the tests call, as a lower bound to check against.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"

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

// True iff omega(g) >= k; uses the targeted search.
bool HasCliqueOfSize(const Graph& g, int k, uint64_t node_limit = 0);

// Randomized greedy clique: `restarts` greedy runs from random seeds,
// keeping the best. Always returns a (possibly empty) clique.
std::vector<int> GreedyClique(const Graph& g, Rng* rng, int restarts = 8);

}  // namespace aqo

#endif  // AQO_GRAPH_CLIQUE_H_
