#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(Graph, EdgesAndDegrees) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.MinDegree(), 1);
  // Adding twice is a no-op.
  g.AddEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 3);
  g.RemoveEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(Graph, EdgesListSorted) {
  Graph g = Graph::FromEdges(4, {{2, 3}, {0, 1}, {1, 3}});
  std::vector<std::pair<int, int>> expected = {{0, 1}, {1, 3}, {2, 3}};
  EXPECT_EQ(g.Edges(), expected);
}

TEST(Graph, CompleteGraph) {
  Graph k5 = Graph::Complete(5);
  EXPECT_EQ(k5.NumEdges(), 10);
  EXPECT_EQ(k5.MinDegree(), 4);
  EXPECT_TRUE(k5.IsClique({0, 1, 2, 3, 4}));
}

TEST(Graph, Complement) {
  Graph g(4);
  g.AddEdge(0, 1);
  Graph c = g.Complement();
  EXPECT_EQ(c.NumEdges(), 5);
  EXPECT_FALSE(c.HasEdge(0, 1));
  EXPECT_TRUE(c.HasEdge(2, 3));
  EXPECT_EQ(c.Complement(), g);
}

TEST(Graph, CliqueChecks) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_TRUE(g.IsClique({0, 1, 2}));
  EXPECT_FALSE(g.IsClique({0, 1, 3}));
  EXPECT_TRUE(g.IsClique({}));
  EXPECT_TRUE(g.IsClique({4}));
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(Graph(0).IsConnected());
  EXPECT_TRUE(Graph(1).IsConnected());
  EXPECT_FALSE(Graph(2).IsConnected());
  EXPECT_TRUE(Chain(10).IsConnected());
  Graph g = Chain(10);
  g.RemoveEdge(4, 5);
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, DisjointUnion) {
  Graph g = DisjointUnion(Chain(3), Graph::Complete(3));
  EXPECT_EQ(g.NumVertices(), 6);
  EXPECT_EQ(g.NumEdges(), 2 + 3);
  EXPECT_TRUE(g.HasEdge(3, 4));
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.IsConnected());
}

TEST(Generators, GnpExtremes) {
  Rng rng(1);
  EXPECT_EQ(Gnp(20, 0.0, &rng).NumEdges(), 0);
  EXPECT_EQ(Gnp(20, 1.0, &rng).NumEdges(), 190);
}

TEST(Generators, GnpDensityRoughlyRight) {
  Rng rng(2);
  Graph g = Gnp(60, 0.3, &rng);
  double density = static_cast<double>(g.NumEdges()) / (60.0 * 59.0 / 2.0);
  EXPECT_NEAR(density, 0.3, 0.06);
}

TEST(Generators, RandomWithEdgeCountExact) {
  Rng rng(3);
  for (int m : {0, 1, 17, 45}) {
    Graph g = RandomWithEdgeCount(10, m, &rng);
    EXPECT_EQ(g.NumEdges(), m);
  }
}

TEST(Generators, PlantedCliqueIsClique) {
  Rng rng(4);
  std::vector<int> planted;
  Graph g = PlantedClique(40, 12, 0.2, &rng, &planted);
  EXPECT_EQ(planted.size(), 12u);
  EXPECT_TRUE(g.IsClique(planted));
}

TEST(Generators, CliqueClassDegreeBound) {
  Rng rng(5);
  std::vector<int> planted;
  Graph g = CliqueClassGraph(60, 13, 1.0, 20, &rng, &planted);
  EXPECT_GE(g.MinDegree(), 60 - 1 - 13);
  EXPECT_TRUE(g.IsClique(planted));
  EXPECT_EQ(planted.size(), 20u);
}

TEST(Generators, ConnectedWithEdgeBudget) {
  Rng rng(6);
  for (int m : {9, 15, 45}) {
    Graph g = ConnectedWithEdgeBudget(10, m, &rng);
    EXPECT_EQ(g.NumEdges(), m);
    EXPECT_TRUE(g.IsConnected());
  }
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(7);
  for (int n : {1, 2, 3, 10, 100}) {
    Graph g = RandomTree(n, &rng);
    EXPECT_EQ(g.NumEdges(), n - 1);
    EXPECT_TRUE(g.IsConnected());
  }
}

TEST(Generators, StructuredGraphs) {
  EXPECT_EQ(Chain(5).NumEdges(), 4);
  EXPECT_EQ(Star(5).NumEdges(), 4);
  EXPECT_EQ(Star(5).Degree(0), 4);
  EXPECT_EQ(Cycle(5).NumEdges(), 5);
  EXPECT_EQ(Cycle(5).MinDegree(), 2);
}

}  // namespace
}  // namespace aqo
