// Canonical relabeling + fingerprint invariants (qo/fingerprint.h): a
// relabeled instance canonicalizes to bit-identical bytes and the same
// 128-bit fingerprint; the retained permutations are inverse bijections;
// sequences mapped back from canonical labels cost bitwise the same on
// the original instance.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "qo/service.h"
#include "qo/workloads.h"
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

}  // namespace
}  // namespace aqo
