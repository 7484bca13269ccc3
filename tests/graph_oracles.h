#ifndef AQO_TESTS_GRAPH_ORACLES_H_
#define AQO_TESTS_GRAPH_ORACLES_H_

// Test-only graph oracles. The vertex cover solvers validate the
// 3SAT -> VERTEX COVER gadget reduction (Theorem 2 of the paper, via
// Garey & Johnson) that underlies Lemmas 3 and 4; the clique helpers
// cross-check graph/clique.h's MaxClique. No program code calls them.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"

namespace aqo {

// Exact minimum vertex cover size via branch & bound (branch on a
// max-degree vertex: either it is in the cover, or all its neighbors are).
// Exponential; intended for small graphs.
int MinVertexCoverSize(const Graph& g);

// Maximal-matching 2-approximation; returns the cover vertices.
std::vector<int> ApproxVertexCover(const Graph& g);

// True iff omega(g) >= k; uses MaxClique's targeted search.
bool HasCliqueOfSize(const Graph& g, int k, uint64_t node_limit = 0);

// Randomized greedy clique: `restarts` greedy runs from random seeds,
// keeping the best. Always returns a (possibly empty) clique, sorted.
std::vector<int> GreedyClique(const Graph& g, Rng* rng, int restarts = 8);

}  // namespace aqo

#endif  // AQO_TESTS_GRAPH_ORACLES_H_
