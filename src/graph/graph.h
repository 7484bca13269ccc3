#ifndef AQO_GRAPH_GRAPH_H_
#define AQO_GRAPH_GRAPH_H_

// Undirected simple graphs over vertices {0, ..., n-1}, stored as one
// adjacency bitset per vertex. This is the shared substrate for query
// graphs, the CLIQUE / VERTEX COVER reductions, and the clique solvers.

#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

namespace aqo {

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n) : n_(n), adj_(static_cast<size_t>(n), DynamicBitset(n)) {
    AQO_CHECK(n >= 0);
  }

  static Graph FromEdges(int n, const std::vector<std::pair<int, int>>& edges);

  // Complete graph K_n.
  static Graph Complete(int n);

  int NumVertices() const { return n_; }
  int NumEdges() const { return num_edges_; }

  // Adds edge {u, v}; no-op when it already exists. Self-loops are illegal.
  void AddEdge(int u, int v);
  void RemoveEdge(int u, int v);

  bool HasEdge(int u, int v) const {
    AQO_DCHECK(InRange(u) && InRange(v));
    return adj_[static_cast<size_t>(u)].Test(v);
  }

  int Degree(int v) const { return adj_[static_cast<size_t>(v)].Count(); }
  int MinDegree() const;

  const DynamicBitset& Neighbors(int v) const {
    AQO_DCHECK(InRange(v));
    return adj_[static_cast<size_t>(v)];
  }

  // All edges as (u, v) with u < v, lexicographic.
  std::vector<std::pair<int, int>> Edges() const;

  // Graph complement (no self-loops).
  Graph Complement() const;

  // True when every pair in `vertices` is adjacent.
  bool IsClique(const std::vector<int>& vertices) const;

  bool IsConnected() const;

  friend bool operator==(const Graph& a, const Graph& b) = default;

 private:
  bool InRange(int v) const { return 0 <= v && v < n_; }

  int n_ = 0;
  int num_edges_ = 0;
  std::vector<DynamicBitset> adj_;
};

// Disjoint union of g1 and g2; vertices of g2 are shifted by
// g1.NumVertices().
Graph DisjointUnion(const Graph& g1, const Graph& g2);

}  // namespace aqo

#endif  // AQO_GRAPH_GRAPH_H_
