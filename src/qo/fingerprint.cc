#include "qo/fingerprint.h"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "util/check.h"

namespace aqo {

namespace {

// Family tags keep a QO_N fingerprint from ever colliding with a QO_H one
// (the accumulators are seeded differently).
constexpr uint64_t kQonTag = 0x514f4e5f6e6f7461ULL;
constexpr uint64_t kQohTag = 0x514f485f68746167ULL;

// One round of key refinement: each relation's new key folds in the
// sorted multiset of its incident-edge summaries. All inputs are
// label-invariant, so the refined keys are too.
template <typename EdgeDataFn>
std::vector<uint64_t> RefineKeys(const Graph& g,
                                 const std::vector<uint64_t>& keys,
                                 const EdgeDataFn& edge_data) {
  int n = g.NumVertices();
  std::vector<uint64_t> next(static_cast<size_t>(n));
  std::vector<uint64_t> incident;
  for (int v = 0; v < n; ++v) {
    incident.clear();
    for (int u = 0; u < n; ++u) {
      if (u == v || !g.HasEdge(v, u)) continue;
      HashAccumulator edge(keys[static_cast<size_t>(u)]);
      edge_data(v, u, &edge);
      incident.push_back(edge.Digest().lo);
    }
    std::sort(incident.begin(), incident.end());
    HashAccumulator acc(keys[static_cast<size_t>(v)]);
    for (uint64_t h : incident) acc.Add(h);
    next[static_cast<size_t>(v)] = acc.Digest().lo;
  }
  return next;
}

// Number of distinct values in `keys`.
size_t DistinctCount(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

// Refines until the partition stops getting finer (at most n rounds: each
// productive round adds a class), then returns the canonical order:
// relations sorted by (final key, original index).
template <typename EdgeDataFn>
std::vector<int> CanonicalOrder(const Graph& g, std::vector<uint64_t> keys,
                                const EdgeDataFn& edge_data) {
  int n = g.NumVertices();
  size_t classes = DistinctCount(keys);
  for (int round = 0; round < n; ++round) {
    std::vector<uint64_t> next = RefineKeys(g, keys, edge_data);
    size_t next_classes = DistinctCount(next);
    keys = std::move(next);
    if (next_classes <= classes) break;  // partition stable
    classes = next_classes;
  }
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    uint64_t ka = keys[static_cast<size_t>(a)];
    uint64_t kb = keys[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  return order;
}

// order[c] = original relation at canonical position c  →  perm maps
// original label to canonical label.
std::vector<int> InvertOrder(const std::vector<int>& order) {
  std::vector<int> perm(order.size());
  for (size_t c = 0; c < order.size(); ++c) {
    perm[static_cast<size_t>(order[c])] = static_cast<int>(c);
  }
  return perm;
}

// The join-graph half of a relabeling: the relabeled graph and sizes go
// to `make`, which builds the family's instance, then every edge gets its
// selectivity and `per_edge(&out, u, v, pu, pv)` copies the family's own
// edge data.
template <typename Instance, typename Make, typename PerEdge>
Instance PermuteJoinGraph(const Instance& inst, const std::vector<int>& perm,
                          Make make, PerEdge per_edge) {
  int n = inst.NumRelations();
  AQO_CHECK(IsPermutation(perm, n));
  std::vector<std::pair<int, int>> edges = inst.graph().Edges();
  Graph g(n);
  for (const auto& [u, v] : edges) {
    g.AddEdge(perm[static_cast<size_t>(u)], perm[static_cast<size_t>(v)]);
  }
  std::vector<LogDouble> sizes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sizes[static_cast<size_t>(perm[static_cast<size_t>(i)])] = inst.size(i);
  }
  Instance out = make(std::move(g), std::move(sizes));
  for (const auto& [u, v] : edges) {
    int pu = perm[static_cast<size_t>(u)];
    int pv = perm[static_cast<size_t>(v)];
    out.SetSelectivity(pu, pv, inst.selectivity(u, v));
    per_edge(&out, u, v, pu, pv);
  }
  return out;
}

// The join-graph half of canonicalization. Refinement starts each
// relation's key from its size and folds in, per incident edge, the
// selectivity and then `edge_data(inst, v, u, acc)`, the family's own
// data of that edge. The fingerprint hashes `tag`, n, `header`, the
// sizes, the edge count, and per edge u, v, the selectivity and
// edge_data(canonical, u, v, acc).
template <typename Instance, typename Permute, typename EdgeData>
Canonical<Instance> CanonicalizeJoinGraph(
    const Instance& inst, uint64_t tag, std::initializer_list<double> header,
    Permute permute, EdgeData edge_data) {
  int n = inst.NumRelations();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] =
        Mix64(std::bit_cast<uint64_t>(inst.size(i).Log2()));
  }
  std::vector<int> order =
      CanonicalOrder(inst.graph(), std::move(keys),
                     [&](int v, int u, HashAccumulator* acc) {
                       acc->AddDouble(inst.selectivity(v, u).Log2());
                       edge_data(inst, v, u, acc);
                     });

  Canonical<Instance> canon;
  canon.from_canonical = order;
  canon.to_canonical = InvertOrder(order);
  canon.instance = permute(inst, canon.to_canonical);

  // Fingerprint the full canonical instance: equal fingerprints imply
  // equal canonical instances (up to 128-bit hash collision).
  HashAccumulator acc(tag);
  acc.Add(static_cast<uint64_t>(n));
  for (double field : header) acc.AddDouble(field);
  const Instance& ci = canon.instance;
  for (int i = 0; i < n; ++i) acc.AddDouble(ci.size(i).Log2());
  std::vector<std::pair<int, int>> edges = ci.graph().Edges();
  acc.Add(static_cast<uint64_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    acc.Add(static_cast<uint64_t>(u));
    acc.Add(static_cast<uint64_t>(v));
    acc.AddDouble(ci.selectivity(u, v).Log2());
    edge_data(ci, u, v, &acc);
  }
  canon.fingerprint = acc.Digest();
  return canon;
}

}  // namespace

QonInstance PermuteQonInstance(const QonInstance& inst,
                               const std::vector<int>& perm) {
  return PermuteJoinGraph(
      inst, perm,
      [](Graph g, std::vector<LogDouble> sizes) {
        return QonInstance(std::move(g), std::move(sizes));
      },
      // Explicit access-path overrides (defaults re-derive to the same
      // values, so copying unconditionally is exact either way).
      [&](QonInstance* out, int u, int v, int pu, int pv) {
        out->SetAccessCost(pu, pv, inst.AccessCost(u, v));
        out->SetAccessCost(pv, pu, inst.AccessCost(v, u));
      });
}

QohInstance PermuteQohInstance(const QohInstance& inst,
                               const std::vector<int>& perm) {
  return PermuteJoinGraph(
      inst, perm,
      [&](Graph g, std::vector<LogDouble> sizes) {
        return QohInstance(std::move(g), std::move(sizes), inst.memory(),
                           inst.eta());
      },
      [](QohInstance*, int, int, int, int) {});
}

CanonicalQon CanonicalizeQon(const QonInstance& inst) {
  return CanonicalizeJoinGraph(
      inst, kQonTag, {}, PermuteQonInstance,
      [](const QonInstance& in, int a, int b, HashAccumulator* acc) {
        acc->AddDouble(in.AccessCost(a, b).Log2());
        acc->AddDouble(in.AccessCost(b, a).Log2());
      });
}

CanonicalQoh CanonicalizeQoh(const QohInstance& inst) {
  return CanonicalizeJoinGraph(
      inst, kQohTag, {inst.memory(), inst.eta()}, PermuteQohInstance,
      [](const QohInstance&, int, int, HashAccumulator*) {});
}

JoinSequence MapSequenceFromCanonical(const JoinSequence& seq,
                                      const std::vector<int>& from_canonical) {
  JoinSequence out;
  out.reserve(seq.size());
  for (int v : seq) out.push_back(from_canonical[static_cast<size_t>(v)]);
  return out;
}

}  // namespace aqo
