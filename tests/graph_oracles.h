#ifndef AQO_TESTS_GRAPH_ORACLES_H_
#define AQO_TESTS_GRAPH_ORACLES_H_

// Test-only graph oracles. The vertex cover solvers validate the
// 3SAT -> VERTEX COVER gadget reduction (Theorem 2 of the paper, via
// Garey & Johnson) that underlies Lemmas 3 and 4; the greedy clique
// cross-checks graph/clique.h's MaxClique. No program code calls them.

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

// True when every edge of `g` has at least one endpoint in `cover`.
bool IsVertexCover(const Graph& g, const DynamicBitset& cover);

// Randomized greedy clique: `restarts` greedy runs from random seeds,
// keeping the best. Always returns a (possibly empty) clique, sorted.
std::vector<int> GreedyClique(const Graph& g, Rng* rng, int restarts = 8);

}  // namespace aqo

#endif  // AQO_TESTS_GRAPH_ORACLES_H_
