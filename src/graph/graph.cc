#include "graph/graph.h"

#include <algorithm>

namespace aqo {

Graph Graph::FromEdges(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

Graph Graph::Complete(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

void Graph::AddEdge(int u, int v) {
  AQO_CHECK(InRange(u) && InRange(v)) << "u=" << u << " v=" << v << " n=" << n_;
  AQO_CHECK(u != v) << "self-loop at " << u;
  if (HasEdge(u, v)) return;
  adj_[static_cast<size_t>(u)].Set(v);
  adj_[static_cast<size_t>(v)].Set(u);
  ++num_edges_;
}

void Graph::RemoveEdge(int u, int v) {
  AQO_CHECK(InRange(u) && InRange(v));
  if (!HasEdge(u, v)) return;
  adj_[static_cast<size_t>(u)].Reset(v);
  adj_[static_cast<size_t>(v)].Reset(u);
  --num_edges_;
}

int Graph::MinDegree() const {
  int d = n_ == 0 ? 0 : n_;
  for (int v = 0; v < n_; ++v) d = std::min(d, Degree(v));
  return d;
}

std::vector<std::pair<int, int>> Graph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (int u = 0; u < n_; ++u) {
    adj_[static_cast<size_t>(u)].ForEachSetBit([&edges, u](int v) {
      if (u < v) edges.emplace_back(u, v);
    });
  }
  return edges;
}

Graph Graph::Complement() const {
  Graph g(n_);
  for (int v = 0; v < n_; ++v) {
    DynamicBitset row = ~adj_[static_cast<size_t>(v)];
    row.Reset(v);
    g.adj_[static_cast<size_t>(v)] = row;
  }
  g.num_edges_ = n_ * (n_ - 1) / 2 - num_edges_;
  return g;
}

bool Graph::IsClique(const std::vector<int>& vertices) const {
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (size_t j = i + 1; j < vertices.size(); ++j) {
      if (!HasEdge(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

bool Graph::IsConnected() const {
  if (n_ <= 1) return true;
  DynamicBitset visited(n_);
  std::vector<int> stack = {0};
  visited.Set(0);
  int seen = 1;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    Neighbors(v).ForEachSetBit([&](int w) {
      if (!visited.Test(w)) {
        visited.Set(w);
        ++seen;
        stack.push_back(w);
      }
    });
  }
  return seen == n_;
}

Graph DisjointUnion(const Graph& g1, const Graph& g2) {
  int n1 = g1.NumVertices();
  Graph g(n1 + g2.NumVertices());
  for (const auto& [u, v] : g1.Edges()) g.AddEdge(u, v);
  for (const auto& [u, v] : g2.Edges()) g.AddEdge(u + n1, v + n1);
  return g;
}

}  // namespace aqo
