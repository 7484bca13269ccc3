// Tests for swap pricing (qo/fast_eval.h) and the ranked swap loop of
// QO_N iterative improvement that uses it:
//
//  - The two regimes, for every i < j pair at the sizes where `ii` ranks:
//    on integer instances (f_N YES and NO, the near-tie instance, access
//    cost overrides, a serialized round trip) EpsLog2() is 0 and
//    PriceSwap(i, j) has the exact evaluator's bits; everywhere else
//    (random workloads, one non-integer size, selectivity or access
//    cost, a magnitude past 2^52) it is within EpsLog2() > 0.
//  - Ranked `ii` is invisible: on both sides of kIiRankedSwapsMinRelations
//    it returns bit-identical (feasible, cost, sequence, status,
//    evaluations) to the naive reference, with and without budgets and
//    cartesian products, directly and through the batch service, including
//    on adversarial near-tie instances where every swap is cost-neutral,
//    in both regimes.
//  - Counter attribution: every priced swap is either a certified reject
//    or an exact re-pricing, and on integer instances only improvements
//    are re-priced.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "io/serialization.h"
#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr int kThreshold = kIiRankedSwapsMinRelations;
constexpr double kC = 2.0 / 3.0;
constexpr double kD = 1.0 / 3.0;

// f_N YES instance: CLIQUE-class graph with a planted clique of size c*n.
QonInstance GapYesInstance(int n, Rng* rng, double log2_alpha = 8.0) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
  std::vector<int> planted;
  Graph g = CliqueClassGraph(n, 13, 1.0, static_cast<int>(kC * n), rng,
                             &planted);
  return ReduceCliqueToQon(g, params).instance;
}

// f_N NO instance: complete (c-d)n-partite source graph, as qon_gap builds.
QonInstance GapNoInstance(int n, double log2_alpha = 8.0) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
  int parts = std::max(1, static_cast<int>((kC - kD) * n));
  return ReduceCliqueToQon(CompleteMultipartite(n, parts), params).instance;
}

// Every relation identical, complete query graph, one shared selectivity:
// every swap of two relations is exactly cost-neutral, so ranking sees
// nothing but near-ties — the band where a sloppy certificate would
// diverge from the exact accept/reject trajectory. The default inputs
// (2^10, 2^-3) are in the integer regime; (1000, 0.1) is its non-integer
// twin, priced with the certified bound.
QonInstance NearTieQonInstance(int n, double size = 1024.0,
                               double selectivity = 0.125) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(size));
  QonInstance inst(g, std::move(sizes));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      inst.SetSelectivity(u, v, LogDouble::FromLinear(selectivity));
    }
  }
  return inst;
}

// An integer instance that is not f_N: G(n, 0.2), so many non-edges,
// with integer log2 sizes and selectivities of varied magnitude, and
// integer access costs between t_j s_kj and t_j set on about half the
// edges.
QonInstance IntegerOverrideInstance(int n, uint64_t seed) {
  Rng rng(seed);
  Graph g = Gnp(n, 0.2, &rng);
  std::vector<LogDouble> sizes;
  for (int v = 0; v < n; ++v) {
    sizes.push_back(LogDouble::FromLog2(
        static_cast<double>(rng.UniformInt(1, 40))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(
        u, v,
        LogDouble::FromLog2(-static_cast<double>(rng.UniformInt(1, 12))));
  }
  for (const auto& [u, v] : g.Edges()) {
    if (rng.UniformInt(0, 1) == 0) continue;
    // Halfway between the perfect index and a full scan, rounded down.
    double lo = (inst.size(v) * inst.selectivity(u, v)).Log2();
    double hi = inst.size(v).Log2();
    inst.SetAccessCost(u, v, LogDouble::FromLog2(std::floor((lo + hi) / 2)));
  }
  return inst;
}

// `inst` after WriteQonInstance and ParseQonInstance.
QonInstance RoundTrip(const QonInstance& inst) {
  std::ostringstream os;
  WriteQonInstance(inst, os);
  ParseResult<QonInstance> parsed = ParseQonInstance(os.str());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.ok() ? std::move(*parsed.value) : inst;
}

// --- the two pricing regimes ----------------------------------------------

enum class Regime { kExact, kCertified };

// Prices every i < j swap of a random start sequence and checks each
// against the exact evaluator: bit-equal in the integer regime, within
// the certified bound otherwise. `regime` is the one `inst` must be in.
void ExpectEveryPairPriced(const QonInstance& inst, Regime regime,
                           uint64_t seed, const std::string& label) {
  int n = inst.NumRelations();
  Rng rng(seed);
  JoinSequence seq = IdentitySequence(n);
  rng.Shuffle(&seq);
  QonCostEvaluator exact(inst);
  QonNeighborhoodEvaluator fast(inst);
  double eps = fast.EpsLog2();
  if (regime == Regime::kExact) {
    ASSERT_EQ(eps, 0.0) << label;
  } else {
    ASSERT_GT(eps, 0.0) << label;
  }
  fast.Load(seq);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::swap(seq[static_cast<size_t>(i)], seq[static_cast<size_t>(j)]);
      double want = exact.Cost(seq).Log2();
      std::swap(seq[static_cast<size_t>(i)], seq[static_cast<size_t>(j)]);
      double price = fast.PriceSwap(i, j);
      if (regime == Regime::kExact) {
        ASSERT_EQ(std::bit_cast<uint64_t>(price), std::bit_cast<uint64_t>(want))
            << label << " i=" << i << " j=" << j << " price=" << price
            << " exact=" << want;
      } else {
        ASSERT_NEAR(price, want, eps) << label << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(QonNeighborhoodEvaluator, EveryPairWithinBoundOnRandomWorkloads) {
  for (int n : {kThreshold, 30, 60, 90}) {
    for (uint64_t seed : {1u, 2u}) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(n));
      QonInstance inst = RandomQonWorkload(n, &rng);
      ExpectEveryPairPriced(inst, Regime::kCertified, seed,
                            "random n=" + std::to_string(n) + " seed=" +
                                std::to_string(seed));
    }
  }
}

TEST(QonNeighborhoodEvaluator, EveryPairExactOnIntegerInstances) {
  for (int n : {30, 60, 90}) {
    std::string at = " n=" + std::to_string(n);
    for (double lg : {2.0, 8.0}) {
      std::string with = at + " lg_alpha=" + std::to_string(lg);
      Rng rng(static_cast<uint64_t>(n));
      ExpectEveryPairPriced(GapYesInstance(n, &rng, lg), Regime::kExact, 3,
                            "f_N YES" + with);
      ExpectEveryPairPriced(GapNoInstance(n, lg), Regime::kExact, 4,
                            "f_N NO" + with);
    }
    ExpectEveryPairPriced(NearTieQonInstance(n), Regime::kExact, 5,
                          "near-tie" + at);
    ExpectEveryPairPriced(IntegerOverrideInstance(n, 6), Regime::kExact, 6,
                          "access overrides" + at);
    ExpectEveryPairPriced(RoundTrip(GapNoInstance(n)), Regime::kExact, 7,
                          "f_N NO round trip" + at);
  }
}

TEST(QonNeighborhoodEvaluator, FallsBackToTheBoundOutsideTheIntegerRegime) {
  for (int n : {30, 60}) {
    std::string at = " n=" + std::to_string(n);
    // One non-integer log2 input of any kind leaves the regime. On the
    // complete near-tie graph every access cost toward a relation is an
    // edge's, so a half-integer size can keep integer access costs.
    int mid = n / 2;
    std::vector<LogDouble> sizes(static_cast<size_t>(n),
                                 LogDouble::FromLinear(1024.0));
    sizes[static_cast<size_t>(mid)] = LogDouble::FromLog2(10.5);
    QonInstance size(Graph::Complete(n), std::move(sizes));
    for (const auto& [u, v] : size.graph().Edges()) {
      size.SetSelectivity(u, v, LogDouble::FromLinear(0.125));
    }
    for (int k = 0; k < n; ++k) {
      if (k != mid) size.SetAccessCost(k, mid, LogDouble::FromLog2(10.0));
    }
    ExpectEveryPairPriced(size, Regime::kCertified, 8,
                          "one non-integer size" + at);
    QonInstance selectivity = GapNoInstance(n);
    auto [u, v] = selectivity.graph().Edges().front();
    selectivity.SetSelectivity(u, v, LogDouble::FromLog2(-7.5));
    // Full scans keep the edge's access costs integers.
    selectivity.SetAccessCost(u, v, selectivity.size(v));
    selectivity.SetAccessCost(v, u, selectivity.size(u));
    ExpectEveryPairPriced(selectivity, Regime::kCertified, 9,
                          "one non-integer selectivity" + at);
    QonInstance access = GapNoInstance(n);
    access.SetAccessCost(u, v,
                         LogDouble::FromLog2(access.size(v).Log2() - 0.5));
    ExpectEveryPairPriced(access, Regime::kCertified, 10,
                          "one non-integer access cost" + at);
    // Integer inputs whose magnitude bound exceeds 2^52.
    ExpectEveryPairPriced(GapNoInstance(n, 0x1p45), Regime::kCertified, 11,
                          "f_N NO lg_alpha=2^45" + at);
  }
}

// --- ranked ii against the naive reference ---------------------------------

void ExpectSameResult(const OptimizerResult& ranked,
                      const OptimizerResult& naive, const std::string& label) {
  ASSERT_EQ(ranked.feasible, naive.feasible) << label;
  EXPECT_EQ(ranked.sequence, naive.sequence) << label;
  EXPECT_EQ(ranked.status, naive.status) << label;
  EXPECT_EQ(ranked.evaluations, naive.evaluations) << label;
  if (ranked.feasible) {
    EXPECT_EQ(ranked.cost.Log2(), naive.cost.Log2()) << label;
  }
}

struct NamedInstance {
  std::string label;
  QonInstance instance;
};

// ii's input kinds at one size: a random workload, the near-tie instance
// and its non-integer twin, and f_N NO instances at lg alpha 8 and 2. The
// integer inputs price exactly; the random workload and the twin take
// the certified bound, so that path still sees ties. The random query
// graph is dense: a sparser one makes the naive descent at n = 60 several
// times longer, enough to dominate the tier-1 suite.
std::vector<NamedInstance> IiInputs(int n) {
  Rng rng(static_cast<uint64_t>(n) * 31);
  std::string at = " n=" + std::to_string(n);
  std::vector<NamedInstance> out;
  out.push_back({"random" + at,
                 RandomQonWorkload(n, &rng, {.edge_probability = 0.9})});
  out.push_back({"near-tie" + at, NearTieQonInstance(n)});
  out.push_back({"non-integer near-tie" + at,
                 NearTieQonInstance(n, 1000.0, 0.1)});
  out.push_back({"f_N" + at, GapNoInstance(n)});
  out.push_back({"f_N lg_alpha=2" + at, GapNoInstance(n, 2.0)});
  return out;
}

const std::vector<int>& IiSizes() {
  static const std::vector<int> sizes = {kThreshold - 1, kThreshold, 60};
  return sizes;
}

TEST(RankedIi, MatchesNaiveReferenceOnBothSidesOfThreshold) {
  obs::Counter& candidates =
      obs::Registry::Get().GetCounter("qo.fast_eval.candidates");
  for (int n : IiSizes()) {
    for (const NamedInstance& input : IiInputs(n)) {
      for (uint64_t cap : {uint64_t{0}, uint64_t{5}, uint64_t{1000}}) {
        for (bool forbid : {false, true}) {
          OptimizerOptions options;
          options.restarts = 1;
          options.budget.max_evaluations = cap;
          options.forbid_cartesian = forbid;
          std::string label = input.label + " cap=" + std::to_string(cap) +
                              " forbid_cartesian=" + std::to_string(forbid);
          uint64_t priced = candidates.Value();
          Rng rng_ranked(77);
          OptimizerResult ranked =
              IterativeImprovementOptimizer(input.instance, &rng_ranked,
                                            options);
          priced = candidates.Value() - priced;
          // Ranking runs exactly from the threshold up.
          if (n >= kThreshold) {
            EXPECT_GT(priced, 0u) << label;
          } else {
            EXPECT_EQ(priced, 0u) << label;
          }
          ScopedNaiveCostEvaluation naive_scope;
          Rng rng_naive(77);
          OptimizerResult naive =
              IterativeImprovementOptimizer(input.instance, &rng_naive,
                                            options);
          ExpectSameResult(ranked, naive, label);
        }
      }
    }
  }
}

TEST(RankedIi, BatchMatchesNaiveReference) {
  std::vector<QonInstance> batch;
  for (int n : IiSizes()) {
    for (NamedInstance& input : IiInputs(n)) {
      batch.push_back(std::move(input.instance));
    }
  }
  BatchOptions options;
  options.optimizer = "ii";
  options.qon.restarts = 1;
  options.seed = 19;
  std::vector<QonBatchItem> naive;
  {
    ScopedNaiveCostEvaluation naive_scope;
    naive = OptimizeQonBatch(batch, options);
  }
  std::vector<QonBatchItem> ranked = OptimizeQonBatch(batch, options);
  ASSERT_EQ(ranked.size(), naive.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    ExpectSameResult(ranked[i].result, naive[i].result,
                     "item " + std::to_string(i));
  }
}

// --- counter attribution ------------------------------------------------

TEST(RankedIi, EveryPricedSwapIsACertifiedRejectOrAnExactRepricing) {
  obs::Registry& registry = obs::Registry::Get();
  obs::Counter& neighborhoods =
      registry.GetCounter("qo.fast_eval.neighborhoods");
  obs::Counter& candidates = registry.GetCounter("qo.fast_eval.candidates");
  obs::Counter& certified =
      registry.GetCounter("qo.fast_eval.certified_rejects");
  obs::Counter& repricings =
      registry.GetCounter("qo.fast_eval.exact_repricings");
  uint64_t n0 = neighborhoods.Value();
  uint64_t c0 = candidates.Value();
  uint64_t k0 = certified.Value();
  uint64_t r0 = repricings.Value();

  Rng gen(5);
  QonInstance inst = RandomQonWorkload(kThreshold + 2, &gen);
  OptimizerOptions options;
  options.restarts = 2;
  Rng rng(1);
  OptimizerResult result = IterativeImprovementOptimizer(inst, &rng, options);

  uint64_t priced = candidates.Value() - c0;
  uint64_t rejects = certified.Value() - k0;
  uint64_t exact = repricings.Value() - r0;
  EXPECT_GT(neighborhoods.Value(), n0);
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(exact, 0u);
  EXPECT_EQ(rejects + exact, priced);
  // Certified rejects count as evaluations; the restarts' start
  // sequences are the only evaluations that are not priced swaps.
  EXPECT_EQ(result.evaluations, priced + 2);
}

// On an integer instance the price is exact, so ties and worse swaps are
// certified rejects and only the accepted improvements are re-priced.
TEST(RankedIi, IntegerInstancesRepriceOnlyImprovements) {
  obs::Registry& registry = obs::Registry::Get();
  obs::Counter& improvements = registry.GetCounter("qon.ii.improvements");
  obs::Counter& repricings =
      registry.GetCounter("qo.fast_eval.exact_repricings");
  uint64_t i0 = improvements.Value();
  uint64_t r0 = repricings.Value();

  QonInstance inst = GapNoInstance(60);
  OptimizerOptions options;
  options.restarts = 2;
  Rng rng(1);
  IterativeImprovementOptimizer(inst, &rng, options);

  uint64_t improved = improvements.Value() - i0;
  EXPECT_GT(improved, 0u);
  EXPECT_EQ(repricings.Value() - r0, improved);
}

}  // namespace
}  // namespace aqo
