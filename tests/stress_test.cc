// Randomized cross-validation stress suite: larger seed sweeps of the
// library's load-bearing equivalences. Kept as plain TESTs with generous
// trial counts so `ctest` exercises hundreds of random instances per run.

#include <gtest/gtest.h>

#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/bnb.h"
#include "qo/ikkbz.h"
#include "qo/optimizers.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "sqo/partition.h"
#include "sqo/sppcs.h"
#include "sqo/star_query.h"
#include "tests/graph_oracles.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(Stress, FourExactQonOptimizersAgree) {
  Rng rng(211);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 8));
    WorkloadOptions options;
    options.shape = trial % 2 == 0 ? WorkloadShape::kRandom : WorkloadShape::kTree;
    QonInstance inst = RandomQonWorkload(n, &rng, options);
    OptimizerResult ex = ExhaustiveQonOptimizer(inst);
    OptimizerResult dp = DpQonOptimizer(inst);
    OptimizerResult bnb = BranchAndBoundQonOptimizer(inst);
    ASSERT_TRUE(ex.feasible && dp.feasible && bnb.feasible);
    ASSERT_EQ(bnb.status, PlanStatus::kComplete);
    EXPECT_TRUE(ex.cost.ApproxEquals(dp.cost, 1e-9));
    EXPECT_TRUE(ex.cost.ApproxEquals(bnb.cost, 1e-9));
    if (options.shape == WorkloadShape::kTree) {
      OptimizerOptions no_cp;
      no_cp.forbid_cartesian = true;
      OptimizerResult dp_cp = DpQonOptimizer(inst, no_cp);
      OptimizerResult kbz = IkkbzOptimizer(inst);
      ASSERT_TRUE(dp_cp.feasible && kbz.feasible);
      EXPECT_TRUE(kbz.cost.ApproxEquals(dp_cp.cost, 1e-6));
    }
  }
}

TEST(Stress, HeuristicsAlwaysProduceValidCostedPlans) {
  Rng rng(212);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 20));
    QonInstance inst = RandomQonWorkload(n, &rng);
    OptimizerOptions sample_options;
    sample_options.samples = 30;
    OptimizerOptions ii_options;
    ii_options.restarts = 1;
    for (const OptimizerResult& r :
         {GreedyQonOptimizer(inst),
          RandomSamplingOptimizer(inst, &rng, sample_options),
          IterativeImprovementOptimizer(inst, &rng, ii_options)}) {
      ASSERT_TRUE(r.feasible);
      ASSERT_TRUE(IsPermutation(r.sequence, n));
      EXPECT_TRUE(QonSequenceCost(inst, r.sequence).ApproxEquals(r.cost, 1e-9));
    }
  }
}

TEST(Stress, GapFloorSoundAcrossRandomGraphFamilies) {
  Rng rng(213);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 11));
    Graph g;
    switch (trial % 3) {
      case 0:
        g = Gnp(n, rng.UniformReal(0.2, 0.95), &rng);
        break;
      case 1:
        g = CompleteMultipartite(n, static_cast<int>(rng.UniformInt(1, n)));
        break;
      default:
        g = PlantedClique(n, static_cast<int>(rng.UniformInt(0, n)), 0.3, &rng);
        break;
    }
    QonGapParams params{.c = 0.9, .d = rng.UniformReal(0.1, 0.8),
                        .log2_alpha = rng.UniformReal(2.0, 10.0)};
    QonGapInstance gap = ReduceCliqueToQon(g, params);
    int omega = static_cast<int>(MaxClique(g).clique.size());
    OptimizerResult opt = DpQonOptimizer(gap.instance);
    ASSERT_TRUE(opt.feasible);
    EXPECT_GE(opt.cost.Log2() + 1e-6, gap.CertifiedLowerBound(omega).Log2())
        << "family=" << trial % 3 << " n=" << n << " omega=" << omega;
  }
}

TEST(Stress, PartitionChainAgreesOnLargerInstances) {
  Rng rng(214);
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 10));
    PartitionInstance part =
        RandomPartitionInstance(n, 8, rng.Bernoulli(0.4), &rng);
    PartitionInstance cleaned;
    for (int64_t v : part.values) {
      if (v > 0) cleaned.values.push_back(v);
    }
    if (cleaned.values.size() < 2 || cleaned.Total() < 4 ||
        cleaned.values.size() > 8) {
      continue;
    }
    ++checked;
    bool expected = SolvePartitionBrute(cleaned).has_value();
    EXPECT_EQ(SolvePartitionDp(cleaned).has_value(), expected);
    SppcsInstance sppcs = ReducePartitionToSppcs(cleaned);
    EXPECT_EQ(SolveSppcsBrute(sppcs).yes, expected);
    SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
    EXPECT_EQ(SolveSqoCpExact(red.instance).within_budget, expected)
        << "trial=" << trial;
  }
  EXPECT_GE(checked, 20);
}

TEST(Stress, CliqueSolverConsistentWithGreedy) {
  Rng rng(215);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 35));
    Graph g = Gnp(n, rng.UniformReal(0.1, 0.9), &rng);
    MaxCliqueResult exact = MaxClique(g);
    std::vector<int> greedy = GreedyClique(g, &rng, 4);
    EXPECT_LE(greedy.size(), exact.clique.size());
  }
}

TEST(Stress, QohDecompositionNeverWorseThanAnyManualSplit) {
  Rng rng(216);
  for (int trial = 0; trial < 25; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 9));
    QohInstance inst = RandomQohWorkload(n, &rng, rng.UniformReal(0.1, 1.0));
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    QohPlan best = OptimalDecomposition(inst, seq);
    // Random manual decompositions.
    for (int attempt = 0; attempt < 20; ++attempt) {
      PipelineDecomposition d;
      d.starts = {1};
      for (int j = 2; j <= n - 1; ++j) {
        if (rng.Bernoulli(0.4)) d.starts.push_back(j);
      }
      PipelineCostResult r = DecompositionCost(inst, seq, d);
      if (r.feasible) {
        ASSERT_TRUE(best.feasible);
        EXPECT_LE(best.cost.Log2(), r.cost.Log2() + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace aqo
