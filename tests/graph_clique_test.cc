#include "graph/clique.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tests/graph_oracles.h"
#include "util/random.h"

namespace aqo {
namespace {

// Reference O(2^n) maximum clique for cross-checking.
int MaxCliqueBrute(const Graph& g) {
  int n = g.NumVertices();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> members;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) members.push_back(i);
    }
    if (static_cast<int>(members.size()) > best && g.IsClique(members)) {
      best = static_cast<int>(members.size());
    }
  }
  return best;
}

TEST(MaxClique, EmptyAndTrivial) {
  EXPECT_TRUE(MaxClique(Graph(0)).clique.empty());
  EXPECT_EQ(MaxClique(Graph(3)).clique.size(), 1u);  // no edges: singleton
  EXPECT_EQ(MaxClique(Graph::Complete(7)).clique.size(), 7u);
}

TEST(MaxClique, KnownStructures) {
  EXPECT_EQ(MaxClique(Chain(10)).clique.size(), 2u);
  EXPECT_EQ(MaxClique(Cycle(9)).clique.size(), 2u);
  EXPECT_EQ(MaxClique(Cycle(3)).clique.size(), 3u);
  EXPECT_EQ(MaxClique(Star(8)).clique.size(), 2u);
}

TEST(MaxClique, MatchesBruteForceOnRandomGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 14));
    Graph g = Gnp(n, rng.UniformReal(0.1, 0.9), &rng);
    MaxCliqueResult r = MaxClique(g);
    EXPECT_EQ(static_cast<int>(r.clique.size()), MaxCliqueBrute(g))
        << "n=" << n << " trial=" << trial;
  }
}

TEST(MaxClique, FindsPlantedClique) {
  Rng rng(22);
  std::vector<int> planted;
  Graph g = PlantedClique(45, 15, 0.25, &rng, &planted);
  MaxCliqueResult r = MaxClique(g);
  EXPECT_GE(r.clique.size(), 15u);
}

TEST(GreedyClique, AlwaysReturnsClique) {
  Rng rng(25);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = Gnp(30, rng.UniformReal(0.1, 0.9), &rng);
    std::vector<int> c = GreedyClique(g, &rng);
    EXPECT_TRUE(g.IsClique(c));
    EXPECT_GE(c.size(), 1u);
  }
}

TEST(GreedyClique, NearOptimalOnDenseClass) {
  Rng rng(26);
  std::vector<int> planted;
  Graph g = CliqueClassGraph(45, 13, 1.0, 30, &rng, &planted);
  std::vector<int> c = GreedyClique(g, &rng, 16);
  // The planted clique dominates such dense instances; greedy should get
  // close.
  EXPECT_GE(c.size(), 20u);
}

TEST(VertexCover, CoverCheck) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  DynamicBitset cover(4);
  cover.Set(1);
  cover.Set(2);
  EXPECT_TRUE(IsVertexCover(g, cover));
  cover.Reset(2);
  EXPECT_FALSE(IsVertexCover(g, cover));
}

TEST(VertexCover, ExactOnKnownGraphs) {
  EXPECT_EQ(MinVertexCoverSize(Graph(4)), 0);
  EXPECT_EQ(MinVertexCoverSize(Graph::Complete(5)), 4);
  EXPECT_EQ(MinVertexCoverSize(Chain(5)), 2);
  EXPECT_EQ(MinVertexCoverSize(Star(7)), 1);
  EXPECT_EQ(MinVertexCoverSize(Cycle(6)), 3);
  EXPECT_EQ(MinVertexCoverSize(Cycle(7)), 4);
}

TEST(VertexCover, ComplementOfCliqueIdentity) {
  // For any graph, minVC = n - max independent set = n - omega(complement).
  Rng rng(27);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 12));
    Graph g = Gnp(n, rng.UniformReal(0.2, 0.8), &rng);
    int vc = MinVertexCoverSize(g);
    int omega_comp = static_cast<int>(MaxClique(g.Complement()).clique.size());
    EXPECT_EQ(vc, n - omega_comp);
  }
}

TEST(VertexCover, ApproxIsCoverWithinFactor2) {
  Rng rng(28);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = Gnp(14, 0.4, &rng);
    std::vector<int> cover = ApproxVertexCover(g);
    int exact = MinVertexCoverSize(g);
    EXPECT_LE(static_cast<int>(cover.size()), 2 * exact);
  }
}

}  // namespace
}  // namespace aqo
