#include "tests/graph_oracles.h"

#include <algorithm>

#include "util/check.h"

namespace aqo {

namespace {

// Branch & bound on a mutable copy. `budget` is the best known cover size
// minus vertices already taken; returns the minimum cover size of `g` or
// `budget` if no smaller cover exists (standard alpha-pruning).
int CoverSearch(Graph* g, int upper_bound) {
  // Remove degree-0 vertices implicitly (they never matter). Handle
  // degree-1 vertices greedily: taking the neighbor is always optimal.
  for (int v = 0; v < g->NumVertices(); ++v) {
    if (g->Degree(v) == 1) {
      int u = g->Neighbors(v).FindFirst();
      Graph reduced = *g;
      std::vector<int> neighbors = reduced.Neighbors(u).ToVector();
      for (int w : neighbors) reduced.RemoveEdge(u, w);
      return 1 + CoverSearch(&reduced, upper_bound - 1);
    }
  }
  if (g->NumEdges() == 0) return 0;
  if (upper_bound <= 0) return 1 << 20;  // prune: cannot beat incumbent

  // Lower bound: greedy maximal matching size.
  {
    Graph copy = *g;
    int matching = 0;
    for (const auto& [u, v] : g->Edges()) {
      if (copy.Degree(u) > 0 && copy.Degree(v) > 0 && copy.HasEdge(u, v)) {
        ++matching;
        std::vector<int> nu = copy.Neighbors(u).ToVector();
        for (int w : nu) copy.RemoveEdge(u, w);
        std::vector<int> nv = copy.Neighbors(v).ToVector();
        for (int w : nv) copy.RemoveEdge(v, w);
      }
    }
    if (matching >= upper_bound) return 1 << 20;
  }

  // Branch on a maximum-degree vertex v: either v is in the cover, or all
  // of N(v) are.
  int v = 0;
  for (int u = 1; u < g->NumVertices(); ++u) {
    if (g->Degree(u) > g->Degree(v)) v = u;
  }
  std::vector<int> neighbors = g->Neighbors(v).ToVector();

  Graph take_v = *g;
  for (int w : neighbors) take_v.RemoveEdge(v, w);
  int best = 1 + CoverSearch(&take_v, upper_bound - 1);

  int nb = static_cast<int>(neighbors.size());
  if (nb < std::min(best, upper_bound)) {
    Graph take_n = *g;
    for (int w : neighbors) {
      std::vector<int> nw = take_n.Neighbors(w).ToVector();
      for (int x : nw) take_n.RemoveEdge(w, x);
    }
    best = std::min(best,
                    nb + CoverSearch(&take_n, std::min(best, upper_bound) - nb));
  }
  return best;
}

}  // namespace

int MinVertexCoverSize(const Graph& g) {
  Graph copy = g;
  int upper = static_cast<int>(ApproxVertexCover(g).size());
  int exact = CoverSearch(&copy, upper + 1);
  AQO_CHECK(exact <= upper);
  return exact;
}

std::vector<int> ApproxVertexCover(const Graph& g) {
  Graph copy = g;
  std::vector<int> cover;
  for (const auto& [u, v] : g.Edges()) {
    if (copy.HasEdge(u, v)) {
      cover.push_back(u);
      cover.push_back(v);
      std::vector<int> nu = copy.Neighbors(u).ToVector();
      for (int w : nu) copy.RemoveEdge(u, w);
      std::vector<int> nv = copy.Neighbors(v).ToVector();
      for (int w : nv) copy.RemoveEdge(v, w);
    }
  }
  std::sort(cover.begin(), cover.end());
  DynamicBitset cover_set(g.NumVertices());
  for (int v : cover) cover_set.Set(v);
  AQO_CHECK(IsVertexCover(g, cover_set));
  return cover;
}

bool IsVertexCover(const Graph& g, const DynamicBitset& cover) {
  for (int u = 0; u < g.NumVertices(); ++u) {
    if (cover.Test(u)) continue;
    // Every neighbor of an uncovered vertex must be in the cover.
    if (!g.Neighbors(u).IsSubsetOf(cover)) return false;
  }
  return true;
}

std::vector<int> GreedyClique(const Graph& g, Rng* rng, int restarts) {
  AQO_CHECK(restarts >= 1);
  int n = g.NumVertices();
  std::vector<int> best;
  for (int r = 0; r < restarts; ++r) {
    // Random starting vertex; then repeatedly add the candidate with the
    // most neighbors inside the shrinking candidate set.
    if (n == 0) break;
    std::vector<int> clique;
    DynamicBitset candidates(n);
    candidates.SetAll();
    int v = static_cast<int>(rng->UniformInt(0, n - 1));
    while (true) {
      clique.push_back(v);
      candidates &= g.Neighbors(v);
      if (candidates.None()) break;
      int best_v = -1;
      int best_score = -1;
      candidates.ForEachSetBit([&](int w) {
        int score = g.Neighbors(w).AndCount(candidates);
        if (score > best_score) {
          best_score = score;
          best_v = w;
        }
      });
      v = best_v;
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  AQO_CHECK(g.IsClique(best));
  return best;
}

}  // namespace aqo
