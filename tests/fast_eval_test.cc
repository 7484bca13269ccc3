// Tests for certified swap pricing (qo/fast_eval.h) and the ranked swap
// loop of QO_N iterative improvement that uses it:
//
//  - Certified error bound: PriceSwap(i, j) is within EpsLog2() of the
//    exact evaluator for every i < j pair, at the sizes where `ii` ranks,
//    on random workloads and on f_N YES and NO instances.
//  - Ranked `ii` is invisible: on both sides of kIiRankedSwapsMinRelations
//    it returns bit-identical (feasible, cost, sequence, status,
//    evaluations) to the naive reference, with and without budgets and
//    cartesian products, directly and through the batch service, including
//    on adversarial near-tie instances where every swap is cost-neutral.
//  - Counter attribution: every priced swap is either a certified reject
//    or an exact re-pricing.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

constexpr int kThreshold = kIiRankedSwapsMinRelations;
constexpr double kC = 2.0 / 3.0;
constexpr double kD = 1.0 / 3.0;

// f_N YES instance: CLIQUE-class graph with a planted clique of size c*n.
QonInstance GapYesInstance(int n, Rng* rng) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = 8.0};
  std::vector<int> planted;
  Graph g = CliqueClassGraph(n, 13, 1.0, static_cast<int>(kC * n), rng,
                             &planted);
  return ReduceCliqueToQon(g, params).instance;
}

// f_N NO instance: complete (c-d)n-partite source graph, as qon_gap builds.
QonInstance GapNoInstance(int n) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = 8.0};
  int parts = std::max(1, static_cast<int>((kC - kD) * n));
  return ReduceCliqueToQon(CompleteMultipartite(n, parts), params).instance;
}

// Every relation identical, complete query graph, one shared selectivity:
// every swap of two relations is exactly cost-neutral, so ranking sees
// nothing but near-ties — the band where a sloppy certificate would
// diverge from the exact accept/reject trajectory.
QonInstance NearTieQonInstance(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(1024.0));
  QonInstance inst(g, std::move(sizes));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      inst.SetSelectivity(u, v, LogDouble::FromLinear(0.125));
    }
  }
  return inst;
}

// --- certified bound ------------------------------------------------------

// Prices every i < j swap of a random start sequence and checks each
// against the exact evaluator.
void ExpectEveryPairWithinBound(const QonInstance& inst, uint64_t seed,
                                const std::string& label) {
  int n = inst.NumRelations();
  Rng rng(seed);
  JoinSequence seq = IdentitySequence(n);
  rng.Shuffle(&seq);
  QonCostEvaluator exact(inst);
  QonNeighborhoodEvaluator fast(inst);
  double eps = fast.EpsLog2();
  ASSERT_GT(eps, 0.0) << label;
  fast.Load(seq);
  exact.Cost(seq);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double want = exact.CostAfterSwap(i, j).Log2();
      exact.CostAfterSwap(i, j);  // restore
      ASSERT_NEAR(fast.PriceSwap(i, j), want, eps)
          << label << " i=" << i << " j=" << j;
    }
  }
}

TEST(QonNeighborhoodEvaluator, EveryPairWithinBoundOnRandomWorkloads) {
  for (int n : {kThreshold, 30, 60, 90}) {
    for (uint64_t seed : {1u, 2u}) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(n));
      QonInstance inst = RandomQonWorkload(n, &rng);
      ExpectEveryPairWithinBound(
          inst, seed, "random n=" + std::to_string(n) + " seed=" +
                          std::to_string(seed));
    }
  }
}

TEST(QonNeighborhoodEvaluator, EveryPairWithinBoundOnGapInstances) {
  for (int n : {30, 60, 90}) {
    Rng rng(static_cast<uint64_t>(n));
    ExpectEveryPairWithinBound(GapYesInstance(n, &rng), 3,
                               "f_N YES n=" + std::to_string(n));
    ExpectEveryPairWithinBound(GapNoInstance(n), 4,
                               "f_N NO n=" + std::to_string(n));
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

// ii's three input kinds at one size: a random workload, the near-tie
// instance, and an f_N NO instance. The random query graph is dense: a
// sparser one makes the naive descent at n = 60 several times longer,
// enough to dominate the tier-1 suite.
std::vector<NamedInstance> IiInputs(int n) {
  Rng rng(static_cast<uint64_t>(n) * 31);
  std::vector<NamedInstance> out;
  out.push_back({"random n=" + std::to_string(n),
                 RandomQonWorkload(n, &rng, {.edge_probability = 0.9})});
  out.push_back({"near-tie n=" + std::to_string(n), NearTieQonInstance(n)});
  out.push_back({"f_N n=" + std::to_string(n), GapNoInstance(n)});
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

TEST(RankedIi, BatchMatchesNaiveReferenceAcrossThreads) {
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
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    std::vector<QonBatchItem> ranked = OptimizeQonBatch(batch, options);
    ASSERT_EQ(ranked.size(), naive.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      ExpectSameResult(ranked[i].result, naive[i].result,
                       "item " + std::to_string(i) + " threads=" +
                           std::to_string(threads));
    }
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

}  // namespace
}  // namespace aqo
