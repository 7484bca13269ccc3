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
// label-invariant, so the refined keys are too. A summary starts from a
// copy of its neighbour's accumulator, seeded once per round.
template <typename EdgeDataFn>
std::vector<uint64_t> RefineKeys(const Graph& g,
                                 const std::vector<uint64_t>& keys,
                                 const EdgeDataFn& edge_data) {
  int n = g.NumVertices();
  std::vector<HashAccumulator> seeded(keys.begin(), keys.end());
  std::vector<uint64_t> next(static_cast<size_t>(n));
  std::vector<uint64_t> incident;
  for (int v = 0; v < n; ++v) {
    incident.clear();
    g.Neighbors(v).ForEachSetBit([&](int u) {
      HashAccumulator edge = seeded[static_cast<size_t>(u)];
      edge_data(v, u, &edge);
      incident.push_back(edge.Digest().lo);
    });
    std::sort(incident.begin(), incident.end());
    HashAccumulator acc = seeded[static_cast<size_t>(v)];
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

// The join-graph half of the label step. Refinement starts each
// relation's key from its size and folds in, per incident edge v-u, the
// selectivity and then `edge_data(v, u, acc)`, the family's own data of
// that edge. The fingerprint hashes `tag`, n, `header`, the sizes, the
// edge count, and per edge (cu, cv) of the relabeled graph, in the order
// Graph::Edges() lists it (cu < cv, lexicographic): cu, cv, the
// selectivity and edge_data(from[cu], from[cv], acc). Every value is read
// from `inst` at the original labels, which are the values
// PermuteJoinGraph copies, so the bits are those of hashing the canonical
// instance.
template <typename Instance, typename EdgeData>
CanonicalLabels LabelJoinGraph(const Instance& inst, uint64_t tag,
                               std::initializer_list<double> header,
                               EdgeData edge_data) {
  int n = inst.NumRelations();
  const Graph& g = inst.graph();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] =
        Mix64(std::bit_cast<uint64_t>(inst.size(i).Log2()));
  }
  CanonicalLabels labels;
  labels.from_canonical = CanonicalOrder(
      g, std::move(keys), [&](int v, int u, HashAccumulator* acc) {
        acc->AddDouble(inst.selectivity(v, u).Log2());
        edge_data(v, u, acc);
      });
  labels.to_canonical = InvertOrder(labels.from_canonical);
  const std::vector<int>& to = labels.to_canonical;
  const std::vector<int>& from = labels.from_canonical;
  AQO_CHECK(IsPermutation(to, n));

  // The relabeled graph's upper triangle, bit cu * n + cv for cu < cv:
  // ascending bits are its edges in lexicographic order.
  DynamicBitset upper(n * n);
  for (int u = 0; u < n; ++u) {
    int cu = to[static_cast<size_t>(u)];
    g.Neighbors(u).ForEachSetBit([&](int v) {
      int cv = to[static_cast<size_t>(v)];
      if (cu < cv) upper.Set(cu * n + cv);
    });
  }

  HashAccumulator acc(tag);
  acc.Add(static_cast<uint64_t>(n));
  for (double field : header) acc.AddDouble(field);
  for (int c : from) acc.AddDouble(inst.size(c).Log2());
  acc.Add(static_cast<uint64_t>(g.NumEdges()));
  upper.ForEachSetBit([&](int bit) {
    int cu = bit / n;
    int cv = bit % n;
    int u = from[static_cast<size_t>(cu)];
    int v = from[static_cast<size_t>(cv)];
    acc.Add(static_cast<uint64_t>(cu));
    acc.Add(static_cast<uint64_t>(cv));
    acc.AddDouble(inst.selectivity(u, v).Log2());
    edge_data(u, v, &acc);
  });
  labels.fingerprint = acc.Digest();
  return labels;
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

CanonicalLabels LabelQon(const QonInstance& inst) {
  return LabelJoinGraph(inst, kQonTag, {},
                        [&](int a, int b, HashAccumulator* acc) {
                          acc->AddDouble(inst.AccessCost(a, b).Log2());
                          acc->AddDouble(inst.AccessCost(b, a).Log2());
                        });
}

CanonicalLabels LabelQoh(const QohInstance& inst) {
  return LabelJoinGraph(inst, kQohTag, {inst.memory(), inst.eta()},
                        [](int, int, HashAccumulator*) {});
}

CanonicalQon CanonicalizeQon(const QonInstance& inst) {
  CanonicalLabels labels = LabelQon(inst);
  QonInstance canonical = PermuteQonInstance(inst, labels.to_canonical);
  return {std::move(labels), std::move(canonical)};
}

CanonicalQoh CanonicalizeQoh(const QohInstance& inst) {
  CanonicalLabels labels = LabelQoh(inst);
  QohInstance canonical = PermuteQohInstance(inst, labels.to_canonical);
  return {std::move(labels), std::move(canonical)};
}

JoinSequence MapSequenceFromCanonical(const JoinSequence& seq,
                                      const std::vector<int>& from_canonical) {
  JoinSequence out;
  out.reserve(seq.size());
  for (int v : seq) out.push_back(from_canonical[static_cast<size_t>(v)]);
  return out;
}

}  // namespace aqo
