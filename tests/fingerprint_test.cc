// Canonical relabeling + fingerprint invariants (qo/fingerprint.h): a
// relabeled instance canonicalizes to bit-identical bytes and the same
// 128-bit fingerprint; the retained permutations are inverse bijections;
// sequences mapped back from canonical labels cost bitwise the same on
// the original instance; the label step matches a reference that hashes
// the relabeled instance itself, bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
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

void ExpectSameQonBytes(const QonInstance& a, const QonInstance& b) {
  ASSERT_EQ(a.NumRelations(), b.NumRelations());
  int n = a.NumRelations();
  ASSERT_EQ(a.graph().Edges(), b.graph().Edges());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(a.size(i).Log2(), b.size(i).Log2()) << "size " << i;
  }
  for (const auto& [u, v] : a.graph().Edges()) {
    EXPECT_EQ(a.selectivity(u, v).Log2(), b.selectivity(u, v).Log2());
    EXPECT_EQ(a.AccessCost(u, v).Log2(), b.AccessCost(u, v).Log2());
    EXPECT_EQ(a.AccessCost(v, u).Log2(), b.AccessCost(v, u).Log2());
  }
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
             0xcb54a84433f8e89cULL, 0x85ef04c1d06f8614ULL);
}

TEST(FingerprintPins, QohInstance) {
  ExpectHash(CanonicalizeQoh(PinnedQohInstance()).fingerprint,
             0x5c3ebe0d89083744ULL, 0x46cea2c075fc0352ULL);
}

TEST(FingerprintPins, QonGapInstance) {
  // f_N of a 7-cycle with two chords.
  Graph g = Graph::FromEdges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {0, 3},
          {2, 5}});
  QonGapInstance gap = ReduceCliqueToQon(
      g, QonGapParams{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 6.0});
  ExpectHash(CanonicalizeQon(gap.instance).fingerprint,
             0xcc0ec498d1f5dfa8ULL, 0xc5414b74ddf497e6ULL);
}

TEST(FingerprintPins, PlanCacheKeys) {
  ExpectHash(QonPlanCacheKey(CanonicalizeQon(PinnedQonInstance()).fingerprint,
                             "ii", OptimizerOptions{}, 7),
             0xe51257fac5fb5dddULL, 0x80d0354a2d73b70dULL);
  ExpectHash(QohPlanCacheKey(CanonicalizeQoh(PinnedQohInstance()).fingerprint,
                             "greedy", QohOptimizerOptions{}, 7),
             0xf06132d1880b82aaULL, 0x78557e45706d6f6dULL);
}

// --- The label step against a reference -------------------------------
//
// The reference is the algorithm LabelQon / LabelQoh replaced: refinement
// tests all n^2 pairs and seeds a new accumulator per edge, and the
// fingerprint hashes the relabeled instance PermuteQ*Instance builds,
// edge by edge in Graph::Edges() order. The label step must give the same
// permutations and the same fingerprint bits on every instance.
namespace reference {

constexpr uint64_t kQonTag = 0x514f4e5f6e6f7461ULL;
constexpr uint64_t kQohTag = 0x514f485f68746167ULL;

template <typename EdgeData>
std::vector<uint64_t> RefineKeys(const Graph& g,
                                 const std::vector<uint64_t>& keys,
                                 const EdgeData& edge_data) {
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

size_t DistinctCount(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

template <typename Instance, typename Permute, typename EdgeData>
CanonicalLabels Canonicalize(const Instance& inst, uint64_t tag,
                             std::initializer_list<double> header,
                             Permute permute, EdgeData edge_data) {
  int n = inst.NumRelations();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys[static_cast<size_t>(i)] =
        Mix64(std::bit_cast<uint64_t>(inst.size(i).Log2()));
  }
  auto refine_data = [&](int v, int u, HashAccumulator* acc) {
    acc->AddDouble(inst.selectivity(v, u).Log2());
    edge_data(inst, v, u, acc);
  };
  size_t classes = DistinctCount(keys);
  for (int round = 0; round < n; ++round) {
    std::vector<uint64_t> next = RefineKeys(inst.graph(), keys, refine_data);
    size_t next_classes = DistinctCount(next);
    keys = std::move(next);
    if (next_classes <= classes) break;
    classes = next_classes;
  }
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
  HashAccumulator acc(tag);
  acc.Add(static_cast<uint64_t>(n));
  for (double field : header) acc.AddDouble(field);
  for (int i = 0; i < n; ++i) acc.AddDouble(ci.size(i).Log2());
  std::vector<std::pair<int, int>> edges = ci.graph().Edges();
  acc.Add(static_cast<uint64_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    acc.Add(static_cast<uint64_t>(u));
    acc.Add(static_cast<uint64_t>(v));
    acc.AddDouble(ci.selectivity(u, v).Log2());
    edge_data(ci, u, v, &acc);
  }
  labels.fingerprint = acc.Digest();
  return labels;
}

CanonicalLabels Qon(const QonInstance& inst) {
  return Canonicalize(
      inst, kQonTag, {}, PermuteQonInstance,
      [](const QonInstance& in, int a, int b, HashAccumulator* acc) {
        acc->AddDouble(in.AccessCost(a, b).Log2());
        acc->AddDouble(in.AccessCost(b, a).Log2());
      });
}

CanonicalLabels Qoh(const QohInstance& inst) {
  return Canonicalize(inst, kQohTag, {inst.memory(), inst.eta()},
                      PermuteQohInstance,
                      [](const QohInstance&, int, int, HashAccumulator*) {});
}

}  // namespace reference

void ExpectSameLabels(const CanonicalLabels& got, const CanonicalLabels& want,
                      const char* what) {
  EXPECT_EQ(got.fingerprint, want.fingerprint) << what;
  EXPECT_EQ(got.to_canonical, want.to_canonical) << what;
  EXPECT_EQ(got.from_canonical, want.from_canonical) << what;
}

// Checks the label step and CanonicalizeQon against the reference on
// `inst`; returns the number of instances checked (1).
int CheckQon(const QonInstance& inst) {
  CanonicalLabels want = reference::Qon(inst);
  ExpectSameLabels(LabelQon(inst), want, "LabelQon");
  CanonicalQon canon = CanonicalizeQon(inst);
  ExpectSameLabels(canon, want, "CanonicalizeQon");
  ExpectSameQonBytes(canon.instance,
                     PermuteQonInstance(inst, want.to_canonical));
  return 1;
}

int CheckQoh(const QohInstance& inst) {
  CanonicalLabels want = reference::Qoh(inst);
  ExpectSameLabels(LabelQoh(inst), want, "LabelQoh");
  ExpectSameLabels(CanonicalizeQoh(inst), want, "CanonicalizeQoh");
  return 1;
}

// Sizes, selectivities and (QO_N) access costs on `g`. With `ties`, every
// size and every selectivity is the same, so refinement separates
// relations by structure alone; otherwise they are drawn at random and
// about half of the QO_N edges get access-cost overrides, each direction
// drawn independently.
std::vector<LogDouble> MakeSizes(int n, bool ties, Rng* rng) {
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(ties ? LogDouble::FromLog2(10.0)
                         : LogDouble::FromLog2(rng->UniformReal(3.0, 20.0)));
  }
  return sizes;
}

LogDouble MakeSelectivity(bool ties, Rng* rng) {
  return ties ? LogDouble::FromLog2(-3.0)
              : LogDouble::FromLog2(rng->UniformReal(-16.0, 0.0));
}

QonInstance MakeQon(const Graph& g, bool ties, Rng* rng) {
  QonInstance inst(g, MakeSizes(g.NumVertices(), ties, rng));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, MakeSelectivity(ties, rng));
  }
  if (ties) return inst;
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

QohInstance MakeQoh(const Graph& g, bool ties, Rng* rng) {
  QohInstance inst(g, MakeSizes(g.NumVertices(), ties, rng),
                   ties ? 4096.0 : rng->UniformReal(100.0, 1e6),
                   ties ? 0.5 : rng->UniformReal(0.1, 0.9));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, MakeSelectivity(ties, rng));
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
      for (bool ties : {false, true}) {
        QonInstance qon = MakeQon(g, ties, &rng);
        QohInstance qoh = MakeQoh(g, ties, &rng);
        checked += CheckQon(qon) + CheckQoh(qoh);
        for (int relabel = 0; relabel < 2; ++relabel) {
          std::vector<int> perm = RandomPermutation(n, &rng);
          checked += CheckQon(PermuteQonInstance(qon, perm));
          checked += CheckQoh(PermuteQohInstance(qoh, perm));
        }
      }
    }
  }
  EXPECT_GE(checked, 2000);
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
  for (const QonInstance& inst : qon) {
    CheckQon(inst);
    for (int relabel = 0; relabel < 3; ++relabel) {
      CheckQon(PermuteQonInstance(
          inst, RandomPermutation(inst.NumRelations(), &rng)));
    }
  }
  for (const QohInstance& inst : qoh) {
    CheckQoh(inst);
    for (int relabel = 0; relabel < 3; ++relabel) {
      CheckQoh(PermuteQohInstance(
          inst, RandomPermutation(inst.NumRelations(), &rng)));
    }
  }
}

// The pins below are golden like those above: their values were recorded
// from a CanonicalizeQ* that hashed the relabeled instance itself.

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
             0x538e7a356ab386f4ULL, 0x844c0f1ea5e6c942ULL);
  ExpectHash(LabelQon(TieHeavyQonInstance()).fingerprint,
             0x538e7a356ab386f4ULL, 0x844c0f1ea5e6c942ULL);
}

TEST(FingerprintPins, ServeHotShapedInstances) {
  ASSERT_EQ(HotQonInstance().graph().NumEdges(), 217);
  ASSERT_EQ(HotQohInstance().graph().NumEdges(), 217);
  ExpectHash(CanonicalizeQon(HotQonInstance()).fingerprint,
             0x972010005df101ccULL, 0x049e0cf803764384ULL);
  ExpectHash(LabelQon(HotQonInstance()).fingerprint,
             0x972010005df101ccULL, 0x049e0cf803764384ULL);
  ExpectHash(CanonicalizeQoh(HotQohInstance()).fingerprint,
             0x073f73b1faf2d1ffULL, 0x5d0fe5417ea0ac75ULL);
  ExpectHash(LabelQoh(HotQohInstance()).fingerprint,
             0x073f73b1faf2d1ffULL, 0x5d0fe5417ea0ac75ULL);
}

}  // namespace
}  // namespace aqo
