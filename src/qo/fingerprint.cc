#include "qo/fingerprint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "util/check.h"

namespace aqo {

namespace {

// Family tags keep a QO_N fingerprint from ever colliding with a QO_H one
// (the header record hashes them).
constexpr uint64_t kQonTag = 0x514f4e5f6e6f7461ULL;
constexpr uint64_t kQohTag = 0x514f485f68746167ULL;

// Seeds of the three record kinds and of the edge attributes.
constexpr uint64_t kHeaderRecord = 0x6865616465725f72ULL;  // "header_r"
constexpr uint64_t kSizeRecord = 0x73697a655f726563ULL;    // "size_rec"
constexpr uint64_t kEdgeRecord = 0x656467655f726563ULL;    // "edge_rec"
constexpr uint64_t kAttribute = 0x6174747269627574ULL;     // "attribut"

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// An edge's words seen from one end a toward the other end b: log2 s_ab,
// and for QO_N log2 AccessCost(a, b) then log2 AccessCost(b, a). `from_u`
// picks a = u.
std::array<uint64_t, 3> EdgeWords(const FlatQonEdge& e, bool from_u) {
  return {Bits(e.selectivity), Bits(from_u ? e.cost_uv : e.cost_vu),
          Bits(from_u ? e.cost_vu : e.cost_uv)};
}

std::array<uint64_t, 1> EdgeWords(const FlatEdge& e, bool) {
  return {Bits(e.selectivity)};
}

// The 128-bit hash of one record: two Mix64 chains over its words, one per
// half, started from different seeds. Records hash independently of one
// another, so their short chains overlap in the pipeline.
class RecordHash {
 public:
  explicit RecordHash(uint64_t kind)
      : lo_(kind ^ 0x6a09e667f3bcc908ULL), hi_(kind ^ 0xbb67ae8584caa73bULL) {}

  RecordHash& Add(uint64_t word) {
    lo_ = Mix64(lo_ ^ word);
    hi_ = Mix64(hi_ ^ word);
    return *this;
  }

  template <size_t kWords>
  RecordHash& Add(const std::array<uint64_t, kWords>& words) {
    for (uint64_t w : words) Add(w);
    return *this;
  }

  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }

 private:
  uint64_t lo_;
  uint64_t hi_;
};

// Sorts `order` by (key, relation) and returns the number of distinct
// keys.
size_t SortByKey(const std::vector<uint64_t>& keys, std::vector<int>* order) {
  std::sort(order->begin(), order->end(), [&](int a, int b) {
    uint64_t ka = keys[static_cast<size_t>(a)];
    uint64_t kb = keys[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  size_t classes = order->empty() ? 0 : 1;
  for (size_t c = 1; c < order->size(); ++c) {
    classes += keys[static_cast<size_t>((*order)[c])] !=
               keys[static_cast<size_t>((*order)[c - 1])];
  }
  return classes;
}

// The canonical order: relations sorted by (final key, original index).
// Keys start from the sizes. While some class holds two relations and the
// last round split a class, a round mixes each key with the wrapping sum
// of Mix64(neighbour key ^ attribute) over its edges, where the attribute
// of an edge seen from one end is hashed once per call. The last round's
// keys are final (each productive round adds a class, so there are at
// most n rounds).
template <typename Edge>
std::vector<int> CanonicalOrder(const std::vector<double>& sizes,
                                const std::vector<Edge>& edges) {
  size_t n = sizes.size();
  std::vector<uint64_t> keys(n);
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = Mix64(Bits(sizes[i]));
    order[i] = static_cast<int>(i);
  }
  size_t classes = SortByKey(keys, &order);
  if (classes == n) return order;
  // attribute[2e] is edge e seen from u, attribute[2e + 1] from v.
  std::vector<uint64_t> attribute(2 * edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    for (bool from_u : {true, false}) {
      uint64_t h = kAttribute;
      for (uint64_t w : EdgeWords(edges[e], from_u)) h = Mix64(h ^ w);
      attribute[2 * e + (from_u ? 0 : 1)] = h;
    }
  }
  std::vector<uint64_t> next(n);
  while (classes < n) {
    std::fill(next.begin(), next.end(), 0);
    for (size_t e = 0; e < edges.size(); ++e) {
      size_t u = static_cast<size_t>(edges[e].u);
      size_t v = static_cast<size_t>(edges[e].v);
      next[u] += Mix64(keys[v] ^ attribute[2 * e]);
      next[v] += Mix64(keys[u] ^ attribute[2 * e + 1]);
    }
    for (size_t i = 0; i < n; ++i) next[i] = Mix64(keys[i] + next[i]);
    keys.swap(next);
    size_t next_classes = SortByKey(keys, &order);
    if (next_classes <= classes) break;  // partition stable
    classes = next_classes;
  }
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

// The label step over a flat form whose header record is `header`: the
// canonical order, then the fingerprint, the wrapping sum of the header's
// hash, each size's record (canonical position, log2 size) and each
// edge's record (canonical pair cu < cv packed in one word, then its
// words seen from cu), with the sum's halves mixed into each other.
template <typename Flat>
CanonicalLabels LabelJoinGraph(const Flat& flat, const RecordHash& header) {
  AQO_CHECK_EQ(flat.sizes.size(), static_cast<size_t>(flat.n));
  CanonicalLabels labels;
  labels.from_canonical = CanonicalOrder(flat.sizes, flat.edges);
  labels.to_canonical = InvertOrder(labels.from_canonical);
  const std::vector<int>& to = labels.to_canonical;

  uint64_t lo = header.lo();
  uint64_t hi = header.hi();
  for (size_t i = 0; i < flat.sizes.size(); ++i) {
    RecordHash record(kSizeRecord);
    record.Add(static_cast<uint64_t>(to[i])).Add(Bits(flat.sizes[i]));
    lo += record.lo();
    hi += record.hi();
  }
  for (const auto& e : flat.edges) {
    uint64_t cu = static_cast<uint64_t>(to[static_cast<size_t>(e.u)]);
    uint64_t cv = static_cast<uint64_t>(to[static_cast<size_t>(e.v)]);
    bool from_u = cu < cv;
    RecordHash record(kEdgeRecord);
    record.Add(from_u ? cu << 32 | cv : cv << 32 | cu)
        .Add(EdgeWords(e, from_u));
    lo += record.lo();
    hi += record.hi();
  }
  lo ^= Mix64(hi);
  hi ^= Mix64(lo);
  labels.fingerprint = Hash128{lo, hi};
  return labels;
}

}  // namespace

CanonicalLabels LabelQon(const FlatQon& flat) {
  RecordHash header(kHeaderRecord);
  header.Add(kQonTag)
      .Add(static_cast<uint64_t>(flat.n))
      .Add(static_cast<uint64_t>(flat.edges.size()));
  return LabelJoinGraph(flat, header);
}

CanonicalLabels LabelQoh(const FlatQoh& flat) {
  RecordHash header(kHeaderRecord);
  header.Add(kQohTag)
      .Add(static_cast<uint64_t>(flat.n))
      .Add(static_cast<uint64_t>(flat.edges.size()))
      .Add(Bits(flat.memory))
      .Add(Bits(flat.eta));
  return LabelJoinGraph(flat, header);
}

CanonicalLabels LabelQon(const QonInstance& inst) {
  return LabelQon(FlattenQon(inst));
}

CanonicalLabels LabelQoh(const QohInstance& inst) {
  return LabelQoh(FlattenQoh(inst));
}

QonInstance PermuteQonInstance(const QonInstance& inst,
                               const std::vector<int>& perm) {
  return BuildQonInstance(FlattenQon(inst), perm);
}

QohInstance PermuteQohInstance(const QohInstance& inst,
                               const std::vector<int>& perm) {
  return BuildQohInstance(FlattenQoh(inst), perm);
}

CanonicalQon CanonicalizeQon(const QonInstance& inst) {
  FlatQon flat = FlattenQon(inst);
  CanonicalLabels labels = LabelQon(flat);
  QonInstance canonical = BuildQonInstance(flat, labels.to_canonical);
  return {std::move(labels), std::move(canonical)};
}

CanonicalQoh CanonicalizeQoh(const QohInstance& inst) {
  FlatQoh flat = FlattenQoh(inst);
  CanonicalLabels labels = LabelQoh(flat);
  QohInstance canonical = BuildQohInstance(flat, labels.to_canonical);
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
