// Canonical relabeling + fingerprint invariants (qo/fingerprint.h): a
// relabeled instance canonicalizes to bit-identical bytes and the same
// 128-bit fingerprint; the retained permutations are inverse bijections;
// sequences mapped back from canonical labels cost bitwise the same on
// the original instance; the label step matches a plain reference bit for
// bit, on instances and on the flat forms read from their text, and
// splits relations into the classes the previous format's refinement
// did; every field of an instance moves its fingerprint.

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "io/serialization.h"
#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/clique_to_qon.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

std::vector<int> RandomPermutation(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

uint64_t Bits(LogDouble v) { return std::bit_cast<uint64_t>(v.Log2()); }

// Every size, and every selectivity and (QO_N) access cost of every
// ordered pair, bit for bit; for QO_H the memory and eta too.
void ExpectSameJoinGraphBytes(const JoinGraph& a, const JoinGraph& b) {
  ASSERT_EQ(a.NumRelations(), b.NumRelations());
  int n = a.NumRelations();
  ASSERT_EQ(a.graph().Edges(), b.graph().Edges());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(a.size(i)), Bits(b.size(i))) << "size " << i;
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(Bits(a.selectivity(i, j)), Bits(b.selectivity(i, j)))
          << "selectivity " << i << "," << j;
    }
  }
}

void ExpectSameQonBytes(const QonInstance& a, const QonInstance& b) {
  ExpectSameJoinGraphBytes(a, b);
  for (int i = 0; i < a.NumRelations(); ++i) {
    for (int j = 0; j < a.NumRelations(); ++j) {
      EXPECT_EQ(Bits(a.AccessCost(i, j)), Bits(b.AccessCost(i, j)))
          << "access cost " << i << "," << j;
    }
  }
}

void ExpectSameQohBytes(const QohInstance& a, const QohInstance& b) {
  ExpectSameJoinGraphBytes(a, b);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.memory()),
            std::bit_cast<uint64_t>(b.memory()));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.eta()), std::bit_cast<uint64_t>(b.eta()));
}

TEST(FingerprintQon, RelabeledDuplicatesShareFingerprintAndBytes) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 14));
    QonInstance inst = RandomQonWorkload(n, &rng);
    std::vector<int> perm = RandomPermutation(n, &rng);
    QonInstance relabeled = PermuteQonInstance(inst, perm);

    CanonicalQon a = CanonicalizeQon(inst);
    CanonicalQon b = CanonicalizeQon(relabeled);
    EXPECT_EQ(QonInvariantViolation(relabeled), "");
    EXPECT_EQ(QonInvariantViolation(a.instance), "");
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ExpectSameQonBytes(a.instance, b.instance);
  }
}

TEST(FingerprintQon, PermutationsAreInverseBijections) {
  Rng rng(72);
  QonInstance inst = RandomQonWorkload(9, &rng);
  CanonicalQon canon = CanonicalizeQon(inst);
  int n = inst.NumRelations();
  ASSERT_EQ(static_cast<int>(canon.to_canonical.size()), n);
  ASSERT_EQ(static_cast<int>(canon.from_canonical.size()), n);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(canon.from_canonical[static_cast<size_t>(
                  canon.to_canonical[static_cast<size_t>(v)])],
              v);
  }
}

TEST(FingerprintQon, MappedBackSequencesCostBitwiseTheSame) {
  Rng rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 10));
    QonInstance inst = RandomQonWorkload(n, &rng);
    CanonicalQon canon = CanonicalizeQon(inst);
    OptimizerResult on_canonical = GreedyQonOptimizer(canon.instance);
    ASSERT_TRUE(on_canonical.feasible);
    JoinSequence mapped =
        MapSequenceFromCanonical(on_canonical.sequence, canon.from_canonical);
    EXPECT_EQ(QonSequenceCost(inst, mapped).Log2(),
              on_canonical.cost.Log2());
  }
}

TEST(FingerprintQon, DistinctInstancesGetDistinctFingerprints) {
  Rng rng(74);
  QonInstance a = RandomQonWorkload(8, &rng);
  QonInstance b = RandomQonWorkload(8, &rng);
  EXPECT_FALSE(CanonicalizeQon(a).fingerprint ==
               CanonicalizeQon(b).fingerprint);
}

TEST(FingerprintQoh, RelabeledDuplicatesShareFingerprintAndBytes) {
  Rng rng(75);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 12));
    QohInstance inst = RandomQohWorkload(n, &rng, 0.5);
    std::vector<int> perm = RandomPermutation(n, &rng);
    QohInstance relabeled = PermuteQohInstance(inst, perm);

    CanonicalQoh a = CanonicalizeQoh(inst);
    CanonicalQoh b = CanonicalizeQoh(relabeled);
    EXPECT_EQ(QohInvariantViolation(relabeled), "");
    EXPECT_EQ(QohInvariantViolation(a.instance), "");
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_EQ(a.instance.graph().Edges(), b.instance.graph().Edges());
    EXPECT_EQ(a.instance.memory(), b.instance.memory());
    EXPECT_EQ(a.instance.eta(), b.instance.eta());
    for (int i = 0; i < a.instance.NumRelations(); ++i) {
      EXPECT_EQ(a.instance.size(i).Log2(), b.instance.size(i).Log2());
    }
    for (const auto& [u, v] : a.instance.graph().Edges()) {
      EXPECT_EQ(a.instance.selectivity(u, v).Log2(),
                b.instance.selectivity(u, v).Log2());
    }
  }
}

TEST(FingerprintQoh, MappedBackSequencesCostBitwiseTheSame) {
  Rng rng(76);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 9));
    QohInstance inst = RandomQohWorkload(n, &rng, 0.6);
    CanonicalQoh canon = CanonicalizeQoh(inst);
    QohOptimizerResult on_canonical = GreedyQohOptimizer(canon.instance);
    if (!on_canonical.feasible) continue;
    JoinSequence mapped =
        MapSequenceFromCanonical(on_canonical.sequence, canon.from_canonical);
    PipelineCostResult replay =
        DecompositionCost(inst, mapped, on_canonical.decomposition);
    ASSERT_TRUE(replay.feasible);
    EXPECT_EQ(replay.cost.Log2(), on_canonical.cost.Log2());
  }
}

TEST(FingerprintQoh, DifferentMemoryBudgetsGetDistinctFingerprints) {
  Rng rng(77);
  QohInstance a = RandomQohWorkload(7, &rng, 0.5);
  QohInstance b(a.graph(),
                [&] {
                  std::vector<LogDouble> sizes;
                  for (int i = 0; i < a.NumRelations(); ++i) {
                    sizes.push_back(a.size(i));
                  }
                  return sizes;
                }(),
                a.memory() * 2.0, a.eta());
  for (const auto& [u, v] : a.graph().Edges()) {
    b.SetSelectivity(u, v, a.selectivity(u, v));
  }
  EXPECT_FALSE(CanonicalizeQoh(a).fingerprint ==
               CanonicalizeQoh(b).fingerprint);
}


// --- Pinned fingerprints and plan-cache keys ----------------------------
//
// The plan cache and persisted plans are keyed by these fingerprints, and
// a stochastic served plan draws from Rng(MixSeed(seed, fingerprint.lo)),
// so a change in how instances are stored or hashed must not move them
// silently. The values are golden: recorded once, never regenerated to
// make a test pass. Moving one is a format break: bump the key tags and
// say so.

// Five relations, four edges, and access-cost overrides: both directions
// of one edge, and one side of another set to its full scan.
QonInstance PinnedQonInstance() {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  QonInstance inst(g, {LogDouble::FromLinear(1000.0),
                       LogDouble::FromLinear(250.0),
                       LogDouble::FromLinear(40.0),
                       LogDouble::FromLinear(7.0),
                       LogDouble::FromLinear(123456.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.01));
  inst.SetSelectivity(1, 2, LogDouble::FromLinear(0.25));
  inst.SetSelectivity(1, 3, LogDouble::FromLinear(0.5));
  inst.SetSelectivity(3, 4, LogDouble::FromLinear(1e-4));
  inst.SetAccessCost(0, 1, LogDouble::FromLinear(20.0));   // in [2.5, 250]
  inst.SetAccessCost(1, 0, LogDouble::FromLinear(600.0));  // in [10, 1000]
  inst.SetAccessCost(4, 3, LogDouble::FromLinear(7.0));    // the scan
  return inst;
}

QohInstance PinnedQohInstance() {
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  QohInstance inst(g,
                   {LogDouble::FromLinear(1 << 20), LogDouble::FromLinear(4096.0),
                    LogDouble::FromLinear(16384.0), LogDouble::FromLinear(1024.0),
                    LogDouble::FromLinear(65536.0)},
                   /*memory=*/40000.0, /*eta=*/0.4);
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(1.0 / 4096.0));
  inst.SetSelectivity(0, 2, LogDouble::FromLinear(1.0 / 16384.0));
  inst.SetSelectivity(0, 3, LogDouble::FromLinear(1.0 / 1024.0));
  inst.SetSelectivity(3, 4, LogDouble::FromLinear(0.25));
  return inst;
}

void ExpectHash(const Hash128& h, uint64_t lo, uint64_t hi) {
  EXPECT_EQ(h.lo, lo) << std::hex << "lo = 0x" << h.lo;
  EXPECT_EQ(h.hi, hi) << std::hex << "hi = 0x" << h.hi;
}

TEST(FingerprintQon, RelabelingKeepsAccessCostOverrides) {
  Rng rng(78);
  QonInstance inst = PinnedQonInstance();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> perm = RandomPermutation(inst.NumRelations(), &rng);
    QonInstance relabeled = PermuteQonInstance(inst, perm);
    EXPECT_EQ(QonInvariantViolation(relabeled), "");
    for (int k = 0; k < inst.NumRelations(); ++k) {
      for (int j = 0; j < inst.NumRelations(); ++j) {
        if (k == j) continue;
        EXPECT_EQ(relabeled.AccessCost(perm[static_cast<size_t>(k)],
                                       perm[static_cast<size_t>(j)])
                      .Log2(),
                  inst.AccessCost(k, j).Log2());
      }
    }
    EXPECT_EQ(QonInvariantViolation(CanonicalizeQon(relabeled).instance), "");
  }
}

TEST(FingerprintPins, QonInstanceWithAccessCostOverrides) {
  ExpectHash(CanonicalizeQon(PinnedQonInstance()).fingerprint,
             0x297520d2e375c228ULL, 0x3b784b158a587846ULL);
}

TEST(FingerprintPins, QohInstance) {
  ExpectHash(CanonicalizeQoh(PinnedQohInstance()).fingerprint,
             0xc76e2af9ce44bb17ULL, 0xc0752a18071b1f83ULL);
}

TEST(FingerprintPins, QonGapInstance) {
  // f_N of a 7-cycle with two chords.
  Graph g = Graph::FromEdges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {0, 3},
          {2, 5}});
  QonGapInstance gap = ReduceCliqueToQon(
      g, QonGapParams{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 6.0});
  ExpectHash(CanonicalizeQon(gap.instance).fingerprint,
             0x4867c058c3df6ca7ULL, 0x87ea0c15ee706ff9ULL);
}

TEST(FingerprintPins, PlanCacheKeys) {
  ExpectHash(QonPlanCacheKey(CanonicalizeQon(PinnedQonInstance()).fingerprint,
                             "ii", OptimizerOptions{}, 7),
             0x62172971956dde4dULL, 0x3417beab0df62929ULL);
  ExpectHash(QohPlanCacheKey(CanonicalizeQoh(PinnedQohInstance()).fingerprint,
                             "greedy", QohOptimizerOptions{}, 7),
             0x64a0edfed71ab12aULL, 0x40e6c65fa0ca1e8fULL);
}

// --- The label step against a reference -------------------------------
//
// The reference is the label step's format in its plainest form:
// refinement tests all n^2 pairs and hashes each edge's attribute where
// it reads it, and the fingerprint hashes the relabeled instance
// PermuteQ*Instance builds, record by record. The label step must give
// the same permutations and the same fingerprint bits on every instance.
namespace reference {

constexpr uint64_t kQonTag = 0x514f4e5f6e6f7461ULL;
constexpr uint64_t kQohTag = 0x514f485f68746167ULL;
constexpr uint64_t kHeaderRecord = 0x6865616465725f72ULL;
constexpr uint64_t kSizeRecord = 0x73697a655f726563ULL;
constexpr uint64_t kEdgeRecord = 0x656467655f726563ULL;
constexpr uint64_t kAttribute = 0x6174747269627574ULL;

// The 128-bit hash of one record: a Mix64 chain over its words per half,
// from two seeds.
Hash128 HashRecord(uint64_t kind, const std::vector<uint64_t>& words) {
  uint64_t lo = kind ^ 0x6a09e667f3bcc908ULL;
  uint64_t hi = kind ^ 0xbb67ae8584caa73bULL;
  for (uint64_t w : words) {
    lo = Mix64(lo ^ w);
    hi = Mix64(hi ^ w);
  }
  return {lo, hi};
}

// Edge {a, b} seen from a: log2 s_ab, then for QO_N log2 W(a, b) and
// log2 W(b, a).
std::vector<uint64_t> EdgeWords(const QonInstance& inst, int a, int b) {
  return {Bits(inst.selectivity(a, b)), Bits(inst.AccessCost(a, b)),
          Bits(inst.AccessCost(b, a))};
}

std::vector<uint64_t> EdgeWords(const QohInstance& inst, int a, int b) {
  return {Bits(inst.selectivity(a, b))};
}

std::vector<uint64_t> Header(const QonInstance& inst) {
  return {kQonTag, static_cast<uint64_t>(inst.NumRelations()),
          static_cast<uint64_t>(inst.graph().NumEdges())};
}

std::vector<uint64_t> Header(const QohInstance& inst) {
  return {kQohTag, static_cast<uint64_t>(inst.NumRelations()),
          static_cast<uint64_t>(inst.graph().NumEdges()),
          std::bit_cast<uint64_t>(inst.memory()),
          std::bit_cast<uint64_t>(inst.eta())};
}

size_t DistinctCount(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

// The final refinement keys: from Mix64 of each size's bits, rounds of
// Mix64(key + sum over neighbours u of Mix64(key_u ^ attribute)) while
// some class holds two relations and the last round split one.
template <typename Instance>
std::vector<uint64_t> Keys(const Instance& inst) {
  int n = inst.NumRelations();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] = Mix64(Bits(inst.size(i)));
  }
  size_t classes = DistinctCount(keys);
  while (classes < static_cast<size_t>(n)) {
    std::vector<uint64_t> next(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      uint64_t sum = 0;
      for (int u = 0; u < n; ++u) {
        if (u == v || !inst.graph().HasEdge(v, u)) continue;
        uint64_t attribute = kAttribute;
        for (uint64_t w : EdgeWords(inst, v, u)) {
          attribute = Mix64(attribute ^ w);
        }
        sum += Mix64(keys[static_cast<size_t>(u)] ^ attribute);
      }
      next[static_cast<size_t>(v)] = Mix64(keys[static_cast<size_t>(v)] + sum);
    }
    keys = std::move(next);
    size_t next_classes = DistinctCount(keys);
    if (next_classes <= classes) break;
    classes = next_classes;
  }
  return keys;
}

template <typename Instance, typename Permute>
CanonicalLabels Canonicalize(const Instance& inst, Permute permute) {
  int n = inst.NumRelations();
  std::vector<uint64_t> keys = Keys(inst);
  CanonicalLabels labels;
  labels.from_canonical.resize(static_cast<size_t>(n));
  std::iota(labels.from_canonical.begin(), labels.from_canonical.end(), 0);
  std::sort(labels.from_canonical.begin(), labels.from_canonical.end(),
            [&](int a, int b) {
              uint64_t ka = keys[static_cast<size_t>(a)];
              uint64_t kb = keys[static_cast<size_t>(b)];
              if (ka != kb) return ka < kb;
              return a < b;
            });
  labels.to_canonical.resize(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    labels.to_canonical[static_cast<size_t>(
        labels.from_canonical[static_cast<size_t>(c)])] = c;
  }

  Instance ci = permute(inst, labels.to_canonical);
  std::vector<Hash128> records = {HashRecord(kHeaderRecord, Header(ci))};
  for (int i = 0; i < n; ++i) {
    records.push_back(
        HashRecord(kSizeRecord, {static_cast<uint64_t>(i), Bits(ci.size(i))}));
  }
  for (const auto& [u, v] : ci.graph().Edges()) {
    std::vector<uint64_t> words = {static_cast<uint64_t>(u) << 32 |
                                   static_cast<uint64_t>(v)};
    for (uint64_t w : EdgeWords(ci, u, v)) words.push_back(w);
    records.push_back(HashRecord(kEdgeRecord, words));
  }
  uint64_t lo = 0, hi = 0;
  for (const Hash128& r : records) {
    lo += r.lo;
    hi += r.hi;
  }
  lo ^= Mix64(hi);
  hi ^= Mix64(lo);
  labels.fingerprint = Hash128{lo, hi};
  return labels;
}

CanonicalLabels Qon(const QonInstance& inst) {
  return Canonicalize(inst, PermuteQonInstance);
}

CanonicalLabels Qoh(const QohInstance& inst) {
  return Canonicalize(inst, PermuteQohInstance);
}

}  // namespace reference

// The refinement of the previous fingerprint format, kept only to show
// that the new one splits relations into the same classes: per round, a
// new accumulator per edge seeded with the neighbour's key, the sorted
// edge digests folded into the relation's own, for at most n rounds and
// until the class count stops growing.
namespace previous {

template <typename Instance, typename EdgeData>
std::vector<uint64_t> Keys(const Instance& inst, EdgeData edge_data) {
  int n = inst.NumRelations();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] = Mix64(Bits(inst.size(i)));
  }
  size_t classes = reference::DistinctCount(keys);
  for (int round = 0; round < n; ++round) {
    std::vector<uint64_t> next(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      std::vector<uint64_t> incident;
      for (int u = 0; u < n; ++u) {
        if (u == v || !inst.graph().HasEdge(v, u)) continue;
        HashAccumulator edge(keys[static_cast<size_t>(u)]);
        edge.AddDouble(inst.selectivity(v, u).Log2());
        edge_data(v, u, &edge);
        incident.push_back(edge.Digest().lo);
      }
      std::sort(incident.begin(), incident.end());
      HashAccumulator acc(keys[static_cast<size_t>(v)]);
      for (uint64_t h : incident) acc.Add(h);
      next[static_cast<size_t>(v)] = acc.Digest().lo;
    }
    size_t next_classes = reference::DistinctCount(next);
    keys = std::move(next);
    if (next_classes <= classes) break;
    classes = next_classes;
  }
  return keys;
}

std::vector<uint64_t> Keys(const QonInstance& inst) {
  return Keys(inst, [&](int a, int b, HashAccumulator* acc) {
    acc->AddDouble(inst.AccessCost(a, b).Log2());
    acc->AddDouble(inst.AccessCost(b, a).Log2());
  });
}

std::vector<uint64_t> Keys(const QohInstance& inst) {
  return Keys(inst, [](int, int, HashAccumulator*) {});
}

}  // namespace previous

// True when the two key vectors put the same relations together.
bool SamePartition(const std::vector<uint64_t>& a,
                   const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      if ((a[i] == a[j]) != (b[i] == b[j])) return false;
    }
  }
  return true;
}

void ExpectSameLabels(const CanonicalLabels& got, const CanonicalLabels& want,
                      const char* what) {
  EXPECT_EQ(got.fingerprint, want.fingerprint) << what;
  EXPECT_EQ(got.to_canonical, want.to_canonical) << what;
  EXPECT_EQ(got.from_canonical, want.from_canonical) << what;
}

std::string QohText(const QohInstance& inst) {
  std::ostringstream os;
  WriteQohInstance(inst, os);
  return os.str();
}

// Checks, on `inst`: the label step on the instance, CanonicalizeQon and
// the label step on the flat form read back from its written text against
// the reference; the canonical instance built from that flat form against
// PermuteQonInstance of the parsed text, every byte; and the reference's
// classes against the previous refinement's. Returns the number of
// instances checked (1).
int CheckQon(const QonInstance& inst) {
  CanonicalLabels want = reference::Qon(inst);
  ExpectSameLabels(LabelQon(inst), want, "LabelQon");
  CanonicalQon canon = CanonicalizeQon(inst);
  ExpectSameLabels(canon, want, "CanonicalizeQon");
  ExpectSameQonBytes(canon.instance,
                     PermuteQonInstance(inst, want.to_canonical));
  std::string text = QonToString(inst);
  ParseResult<FlatQon> flat = ParseFlatQon(text);
  ParseResult<QonInstance> parsed = ParseQonInstance(text);
  EXPECT_TRUE(flat.ok() && parsed.ok()) << flat.error;
  if (flat.ok() && parsed.ok()) {
    ExpectSameLabels(LabelQon(*flat.value), want, "LabelQon(ParseFlatQon)");
    ExpectSameQonBytes(BuildQonInstance(*flat.value, want.to_canonical),
                       PermuteQonInstance(*parsed.value, want.to_canonical));
  }
  EXPECT_TRUE(SamePartition(reference::Keys(inst), previous::Keys(inst)));
  return 1;
}

int CheckQoh(const QohInstance& inst) {
  CanonicalLabels want = reference::Qoh(inst);
  ExpectSameLabels(LabelQoh(inst), want, "LabelQoh");
  CanonicalQoh canon = CanonicalizeQoh(inst);
  ExpectSameLabels(canon, want, "CanonicalizeQoh");
  ExpectSameQohBytes(canon.instance,
                     PermuteQohInstance(inst, want.to_canonical));
  std::string text = QohText(inst);
  ParseResult<FlatQoh> flat = ParseFlatQoh(text);
  ParseResult<QohInstance> parsed = ParseQohInstance(text);
  EXPECT_TRUE(flat.ok() && parsed.ok()) << flat.error;
  if (flat.ok() && parsed.ok()) {
    ExpectSameLabels(LabelQoh(*flat.value), want, "LabelQoh(ParseFlatQoh)");
    ExpectSameQohBytes(BuildQohInstance(*flat.value, want.to_canonical),
                       PermuteQohInstance(*parsed.value, want.to_canonical));
  }
  EXPECT_TRUE(SamePartition(reference::Keys(inst), previous::Keys(inst)));
  return 1;
}

// How MakeQon and MakeQoh draw the values on a graph: every size and
// selectivity at random (and about half of the QO_N edges get
// access-cost overrides, each direction drawn independently); from three
// values each, so refinement takes several rounds; or all equal, so it
// separates relations by structure alone.
enum class Values { kRandom, kThree, kEqual };

std::vector<LogDouble> MakeSizes(int n, Values values, Rng* rng) {
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    switch (values) {
      case Values::kRandom:
        sizes.push_back(LogDouble::FromLog2(rng->UniformReal(3.0, 20.0)));
        break;
      case Values::kThree:
        sizes.push_back(LogDouble::FromLog2(
            8.0 + 2.0 * static_cast<double>(rng->UniformInt(0, 2))));
        break;
      case Values::kEqual:
        sizes.push_back(LogDouble::FromLog2(10.0));
        break;
    }
  }
  return sizes;
}

LogDouble MakeSelectivity(Values values, Rng* rng) {
  switch (values) {
    case Values::kRandom:
      return LogDouble::FromLog2(rng->UniformReal(-16.0, 0.0));
    case Values::kThree:
      return LogDouble::FromLog2(-1.0 -
                                 static_cast<double>(rng->UniformInt(0, 2)));
    case Values::kEqual:
      break;
  }
  return LogDouble::FromLog2(-3.0);
}

QonInstance MakeQon(const Graph& g, Values values, Rng* rng) {
  QonInstance inst(g, MakeSizes(g.NumVertices(), values, rng));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, MakeSelectivity(values, rng));
  }
  if (values != Values::kRandom) return inst;
  for (const auto& [u, v] : g.Edges()) {
    for (auto [k, j] : {std::pair{u, v}, std::pair{v, u}}) {
      if (!rng->Bernoulli(0.5)) continue;
      double lo = (inst.size(j) * inst.selectivity(k, j)).Log2();
      double hi = inst.size(j).Log2();
      double w = std::min(hi, rng->UniformReal(lo, hi));
      inst.SetAccessCost(k, j, LogDouble::FromLog2(w));
    }
  }
  return inst;
}

QohInstance MakeQoh(const Graph& g, Values values, Rng* rng) {
  bool random = values == Values::kRandom;
  QohInstance inst(g, MakeSizes(g.NumVertices(), values, rng),
                   random ? rng->UniformReal(100.0, 1e6) : 4096.0,
                   random ? rng->UniformReal(0.1, 0.9) : 0.5);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, MakeSelectivity(values, rng));
  }
  return inst;
}

// Gnp, tree, chain, star, complete, empty, cycle and K_{a,b} at n.
std::vector<Graph> Shapes(int n, Rng* rng) {
  std::vector<Graph> shapes = {Gnp(n, 0.5, rng), RandomTree(n, rng),
                               Chain(n), Star(n), Graph::Complete(n),
                               Graph(n)};
  if (n >= 3) shapes.push_back(Cycle(n));
  if (n >= 2) shapes.push_back(CompleteMultipartite(n, 2));
  return shapes;
}

TEST(LabelStep, MatchesTheReferenceOnEveryShapeAndRelabeling) {
  Rng rng(79);
  int checked = 0;
  for (int n = 1; n <= 40; ++n) {
    for (const Graph& g : Shapes(n, &rng)) {
      for (Values values : {Values::kRandom, Values::kThree, Values::kEqual}) {
        QonInstance qon = MakeQon(g, values, &rng);
        QohInstance qoh = MakeQoh(g, values, &rng);
        checked += CheckQon(qon) + CheckQoh(qoh);
        for (int relabel = 0; relabel < 2; ++relabel) {
          std::vector<int> perm = RandomPermutation(n, &rng);
          checked += CheckQon(PermuteQonInstance(qon, perm));
          checked += CheckQoh(PermuteQohInstance(qoh, perm));
        }
      }
    }
  }
  EXPECT_GE(checked, 5000);
}

TEST(LabelStep, MatchesTheReferenceOnGapInstances) {
  Rng rng(80);
  std::vector<QonInstance> qon;
  for (const Graph& g : {Cycle(7), CompleteMultipartite(9, 3),
                         Graph::Complete(6), Gnp(12, 0.5, &rng)}) {
    qon.push_back(
        ReduceCliqueToQon(g, QonGapParams{.c = 2.0 / 3.0, .d = 1.0 / 3.0,
                                          .log2_alpha = 6.0})
            .instance);
  }
  std::vector<QohInstance> qoh;
  for (const Graph& g : {Graph::Complete(9), CompleteMultipartite(9, 3),
                         Gnp(9, 0.6, &rng)}) {
    qoh.push_back(ReduceTwoThirdsCliqueToQoh(g, QohGapParams{}).instance);
  }
  int checked = 0;
  for (const QonInstance& inst : qon) {
    checked += CheckQon(inst);
    for (int relabel = 0; relabel < 8; ++relabel) {
      checked += CheckQon(PermuteQonInstance(
          inst, RandomPermutation(inst.NumRelations(), &rng)));
    }
  }
  for (const QohInstance& inst : qoh) {
    checked += CheckQoh(inst);
    for (int relabel = 0; relabel < 8; ++relabel) {
      checked += CheckQoh(PermuteQohInstance(
          inst, RandomPermutation(inst.NumRelations(), &rng)));
    }
  }
  EXPECT_EQ(checked, 63);
}

// The pins below are golden like those above.

// K_{3,4} with every size and selectivity equal: refinement separates
// the two sides by degree and nothing else.
QonInstance TieHeavyQonInstance() {
  Graph g = CompleteMultipartite(7, 2);
  QonInstance inst(g, std::vector<LogDouble>(7, LogDouble::FromLog2(10.0)));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLog2(-3.0));
  }
  return inst;
}

// The shape of an e2ebench serve_hot request: n = 30 relations and 217 of
// the 435 possible edges, log-uniform sizes in [10, 1e6], selectivities
// uniform in [1e-5, 1], QO_H memory half the summed sizes.
Graph HotGraph(Rng* rng) { return RandomWithEdgeCount(30, 217, rng); }

std::vector<LogDouble> HotSizes(Rng* rng) {
  std::vector<LogDouble> sizes;
  for (int i = 0; i < 30; ++i) {
    sizes.push_back(LogDouble::FromLog2(
        rng->UniformReal(std::log2(10.0), std::log2(1e6))));
  }
  return sizes;
}

QonInstance HotQonInstance() {
  Rng rng(30217);
  Graph g = HotGraph(&rng);
  QonInstance inst(g, HotSizes(&rng));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng.UniformReal(1e-5, 1.0)));
  }
  return inst;
}

QohInstance HotQohInstance() {
  Rng rng(30218);
  Graph g = HotGraph(&rng);
  std::vector<LogDouble> sizes = HotSizes(&rng);
  double total = 0.0;
  for (LogDouble t : sizes) total += std::exp2(t.Log2());
  QohInstance inst(g, sizes, 0.5 * total);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng.UniformReal(1e-5, 1.0)));
  }
  return inst;
}

TEST(FingerprintPins, TieHeavyQonInstance) {
  ExpectHash(CanonicalizeQon(TieHeavyQonInstance()).fingerprint,
             0x3127958f0f2b168dULL, 0x1e5d2aff12380d4cULL);
  ExpectHash(LabelQon(TieHeavyQonInstance()).fingerprint,
             0x3127958f0f2b168dULL, 0x1e5d2aff12380d4cULL);
}

TEST(FingerprintPins, ServeHotShapedInstances) {
  ASSERT_EQ(HotQonInstance().graph().NumEdges(), 217);
  ASSERT_EQ(HotQohInstance().graph().NumEdges(), 217);
  ExpectHash(CanonicalizeQon(HotQonInstance()).fingerprint,
             0xd6b414a861df6385ULL, 0xd72a65b59b8a9459ULL);
  ExpectHash(LabelQon(HotQonInstance()).fingerprint,
             0xd6b414a861df6385ULL, 0xd72a65b59b8a9459ULL);
  ExpectHash(CanonicalizeQoh(HotQohInstance()).fingerprint,
             0x4d127caef9a4de78ULL, 0x7d85ac38568a969bULL);
  ExpectHash(LabelQoh(HotQohInstance()).fingerprint,
             0x4d127caef9a4de78ULL, 0x7d85ac38568a969bULL);
}

// --- Every field moves the fingerprint -----------------------------------

double OneUlpUp(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

FlatQonEdge TurnedAround(FlatQonEdge e) {
  std::swap(e.u, e.v);
  std::swap(e.cost_uv, e.cost_vu);
  return e;
}

FlatEdge TurnedAround(FlatEdge e) {
  std::swap(e.u, e.v);
  return e;
}

// `base` with one field one ulp up, each in turn (`more_fields` adds the
// family's own), one edge removed, or an edge added on the first pair
// with none.
template <typename Flat, typename MoreFields>
std::vector<Flat> OneFieldVariants(const Flat& base, MoreFields more_fields) {
  std::vector<Flat> out;
  for (size_t i = 0; i < base.sizes.size(); ++i) {
    out.push_back(base);
    out.back().sizes[i] = OneUlpUp(base.sizes[i]);
  }
  for (size_t e = 0; e < base.edges.size(); ++e) {
    out.push_back(base);
    out.back().edges[e].selectivity = OneUlpUp(base.edges[e].selectivity);
    out.push_back(base);
    out.back().edges.erase(out.back().edges.begin() +
                           static_cast<std::ptrdiff_t>(e));
  }
  more_fields(base, &out);
  for (int a = 0; a < base.n; ++a) {
    for (int b = a + 1; b < base.n; ++b) {
      bool adjacent = std::any_of(
          base.edges.begin(), base.edges.end(), [&](const auto& e) {
            return std::min(e.u, e.v) == a && std::max(e.u, e.v) == b;
          });
      if (adjacent) continue;
      out.push_back(base);
      auto& added = out.back().edges.emplace_back();
      added.u = a;
      added.v = b;
      added.selectivity = -1.0;
      return out;
    }
  }
  return out;
}

// Every variant gets a fingerprint of its own; the base relabeled, and
// with its edge list reversed and each edge turned around, keeps its own.
template <typename Flat, typename Label, typename Relabel>
void ExpectEveryFieldMoves(const Flat& base,
                           const std::vector<Flat>& variants, Label label,
                           Relabel relabel) {
  std::vector<Hash128> seen = {label(base).fingerprint};
  for (const Flat& variant : variants) {
    Hash128 h = label(variant).fingerprint;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), h), 0)
        << "variant " << seen.size() - 1;
    seen.push_back(h);
  }
  Flat turned = base;
  std::reverse(turned.edges.begin(), turned.edges.end());
  for (auto& e : turned.edges) e = TurnedAround(e);
  EXPECT_EQ(label(turned).fingerprint, seen.front());
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_EQ(label(relabel(RandomPermutation(base.n, &rng))).fingerprint,
              seen.front());
  }
}

TEST(Fingerprint, EveryFieldMovesTheFingerprint) {
  QonInstance qon = PinnedQonInstance();
  FlatQon qon_base = FlattenQon(qon);
  std::vector<FlatQon> qon_variants =
      OneFieldVariants(qon_base, [](const FlatQon& base, auto* out) {
        for (size_t e = 0; e < base.edges.size(); ++e) {
          out->push_back(base);
          out->back().edges[e].cost_uv = OneUlpUp(base.edges[e].cost_uv);
          out->push_back(base);
          out->back().edges[e].cost_vu = OneUlpUp(base.edges[e].cost_vu);
        }
      });
  // 5 sizes, 4 edges x (selectivity, removal, two costs), one added edge.
  ASSERT_EQ(qon_variants.size(), 5u + 4u * 4u + 1u);
  ExpectEveryFieldMoves(
      qon_base, qon_variants, [](const FlatQon& f) { return LabelQon(f); },
      [&](const std::vector<int>& perm) {
        return FlattenQon(PermuteQonInstance(qon, perm));
      });

  QohInstance qoh = PinnedQohInstance();
  FlatQoh qoh_base = FlattenQoh(qoh);
  std::vector<FlatQoh> qoh_variants =
      OneFieldVariants(qoh_base, [](const FlatQoh& base, auto* out) {
        out->push_back(base);
        out->back().memory = OneUlpUp(base.memory);
        out->push_back(base);
        out->back().eta = OneUlpUp(base.eta);
      });
  ASSERT_EQ(qoh_variants.size(), 5u + 4u * 2u + 2u + 1u);
  ExpectEveryFieldMoves(
      qoh_base, qoh_variants, [](const FlatQoh& f) { return LabelQoh(f); },
      [&](const std::vector<int>& perm) {
        return FlattenQoh(PermuteQohInstance(qoh, perm));
      });
}

}  // namespace
}  // namespace aqo
