#include "qo/flat_instance.h"

#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace aqo {

namespace {

// The sizes and edges both families share, at the caller's labels.
template <typename Flat>
void FlattenJoinGraph(const JoinGraph& inst, Flat* flat) {
  flat->n = inst.NumRelations();
  flat->sizes.reserve(static_cast<size_t>(flat->n));
  for (int i = 0; i < flat->n; ++i) flat->sizes.push_back(inst.size(i).Log2());
  std::vector<std::pair<int, int>> edges = inst.graph().Edges();
  flat->edges.resize(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    auto [u, v] = edges[e];
    flat->edges[e].u = u;
    flat->edges[e].v = v;
    flat->edges[e].selectivity = inst.selectivity(u, v).Log2();
  }
}

// The join-graph half of both builders: the relabeled graph and sizes go
// to `make`, which builds the family's instance, then every edge gets its
// selectivity and `per_edge(&out, edge, pu, pv)` sets the family's own
// edge data.
template <typename Instance, typename Flat, typename Make, typename PerEdge>
Instance BuildJoinGraph(const Flat& flat, const std::vector<int>& perm,
                        Make make, PerEdge per_edge) {
  int n = flat.n;
  AQO_CHECK(perm.empty() || IsPermutation(perm, n));
  AQO_CHECK_EQ(flat.sizes.size(), static_cast<size_t>(n));
  auto label = [&](int i) {
    return perm.empty() ? i : perm[static_cast<size_t>(i)];
  };
  Graph g(n);
  for (const auto& e : flat.edges) g.AddEdge(label(e.u), label(e.v));
  std::vector<LogDouble> sizes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sizes[static_cast<size_t>(label(i))] =
        LogDouble::FromLog2(flat.sizes[static_cast<size_t>(i)]);
  }
  Instance out = make(std::move(g), std::move(sizes));
  for (const auto& e : flat.edges) {
    int pu = label(e.u);
    int pv = label(e.v);
    out.SetSelectivity(pu, pv, LogDouble::FromLog2(e.selectivity));
    per_edge(&out, e, pu, pv);
  }
  return out;
}

}  // namespace

FlatQon FlattenQon(const QonInstance& inst) {
  FlatQon flat;
  FlattenJoinGraph(inst, &flat);
  for (FlatQonEdge& e : flat.edges) {
    e.cost_uv = inst.AccessCost(e.u, e.v).Log2();
    e.cost_vu = inst.AccessCost(e.v, e.u).Log2();
  }
  return flat;
}

FlatQoh FlattenQoh(const QohInstance& inst) {
  FlatQoh flat;
  FlattenJoinGraph(inst, &flat);
  flat.memory = inst.memory();
  flat.eta = inst.eta();
  return flat;
}

QonInstance BuildQonInstance(const FlatQon& flat,
                             const std::vector<int>& perm) {
  return BuildJoinGraph<QonInstance>(
      flat, perm,
      [](Graph g, std::vector<LogDouble> sizes) {
        return QonInstance(std::move(g), std::move(sizes));
      },
      // The selectivity derived both defaults; only overrides are set.
      [](QonInstance* out, const FlatQonEdge& e, int pu, int pv) {
        for (auto [k, j, cost] : {std::tuple{pu, pv, e.cost_uv},
                                  std::tuple{pv, pu, e.cost_vu}}) {
          if (std::bit_cast<uint64_t>(out->AccessCost(k, j).Log2()) !=
              std::bit_cast<uint64_t>(cost)) {
            out->SetAccessCost(k, j, LogDouble::FromLog2(cost));
          }
        }
      });
}

QohInstance BuildQohInstance(const FlatQoh& flat,
                             const std::vector<int>& perm) {
  return BuildJoinGraph<QohInstance>(
      flat, perm,
      [&](Graph g, std::vector<LogDouble> sizes) {
        return QohInstance(std::move(g), std::move(sizes), flat.memory,
                           flat.eta);
      },
      [](QohInstance*, const FlatEdge&, int, int) {});
}

}  // namespace aqo
