// Tests for plan diagnostics and the C_out metric (qo/analysis.h).

#include "qo/analysis.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/optimizers.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(CostProfile, MatchesJoinCosts) {
  Rng rng(181);
  QonInstance inst = RandomQonWorkload(8, &rng);
  JoinSequence seq = IdentitySequence(8);
  CostProfile profile = ComputeCostProfile(inst, seq);
  std::vector<LogDouble> h = QonJoinCosts(inst, seq);
  ASSERT_EQ(profile.log2_h.size(), h.size());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_DOUBLE_EQ(profile.log2_h[i], h[i].Log2());
  }
  EXPECT_DOUBLE_EQ(profile.log2_h[static_cast<size_t>(profile.peak_index)],
                   *std::max_element(profile.log2_h.begin(),
                                     profile.log2_h.end()));
  EXPECT_GE(profile.log2_sum_over_peak, 0.0);
}

TEST(CostProfile, GapWitnessIsUnimodalWithSmallSumOverPeak) {
  // The Lemma 6 shape, via the diagnostics API.
  Rng rng(182);
  std::vector<int> planted;
  Graph g = CliqueClassGraph(120, 13, 1.0, 80, &rng, &planted);
  QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 4.0};
  QonGapInstance gap = ReduceCliqueToQon(g, params);
  JoinSequence witness = CliqueFirstWitness(g, planted);
  CostProfile profile = ComputeCostProfile(gap.instance, witness);
  EXPECT_NEAR(profile.peak_index + 1, gap.PeakPosition(), 1.5);
  EXPECT_LE(profile.max_rise_violation, 1e-9);   // monotone up to the peak
  EXPECT_LE(profile.max_post_peak_rise, 1e-9);   // monotone after it
  EXPECT_LE(profile.log2_sum_over_peak, params.log2_alpha);  // Lemma 6 sum
}

TEST(Cout, HandComputedValue) {
  Graph g = Chain(3);
  QonInstance inst(g, {LogDouble::FromLinear(10.0), LogDouble::FromLinear(20.0),
                       LogDouble::FromLinear(30.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  inst.SetSelectivity(1, 2, LogDouble::FromLinear(0.1));
  // N_2 = 100, N_3 = 300.
  EXPECT_NEAR(CoutSequenceCost(inst, {0, 1, 2}).ToLinear(), 400.0, 1e-9);
}

TEST(Cout, OptimalMatchesBruteForce) {
  Rng rng(184);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 8));
    QonInstance inst = RandomQonWorkload(n, &rng);
    OptimizerResult dp = CoutOptimalJoinOrder(inst);
    // Brute force over permutations.
    JoinSequence seq = IdentitySequence(n);
    LogDouble best = CoutSequenceCost(inst, seq);
    do {
      best = MinOf(best, CoutSequenceCost(inst, seq));
    } while (std::next_permutation(seq.begin(), seq.end()));
    EXPECT_TRUE(dp.cost.ApproxEquals(best, 1e-9)) << "trial=" << trial;
  }
}

TEST(Cout, EqualsHModelOnSingleEdgeIndexedJoins) {
  // With default (perfect index) access costs, a connected sequence whose
  // every join uses exactly one predicate has H_i = N(next prefix):
  // the H cost equals C_out. Trees guarantee the single-predicate part.
  Rng rng(185);
  for (int trial = 0; trial < 20; ++trial) {
    WorkloadOptions options;
    options.shape = WorkloadShape::kTree;
    int n = static_cast<int>(rng.UniformInt(3, 12));
    QonInstance inst = RandomQonWorkload(n, &rng, options);
    OptimizerOptions no_cp;
    no_cp.forbid_cartesian = true;
    OptimizerResult dp = DpQonOptimizer(inst, no_cp);
    ASSERT_TRUE(dp.feasible);
    EXPECT_TRUE(QonSequenceCost(inst, dp.sequence)
                    .ApproxEquals(CoutSequenceCost(inst, dp.sequence), 1e-9));
  }
}

TEST(Cout, ModelsCanDisagreeOnThePlan) {
  // Construct an instance where an expensive access path makes the H-model
  // avoid a join the C_out model loves: star with a huge but
  // ultra-selective dimension.
  Graph g = Star(3);
  QonInstance inst(g, {LogDouble::FromLinear(1000.0),
                       LogDouble::FromLinear(1000000.0),
                       LogDouble::FromLinear(10.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(1e-6));
  inst.SetSelectivity(0, 2, LogDouble::FromLinear(0.1));
  // Force a bad access path for relation 1 (full scan only).
  inst.SetAccessCost(0, 1, LogDouble::FromLinear(1000000.0));
  OptimizerResult h_opt = DpQonOptimizer(inst);
  OptimizerResult c_opt = CoutOptimalJoinOrder(inst);
  ASSERT_TRUE(h_opt.feasible);
  // Under C_out relation 1 is harmless (result shrinks); under H its scan
  // dominates. The plans' H-costs must differ.
  LogDouble h_of_c = QonSequenceCost(inst, c_opt.sequence);
  EXPECT_GE(h_of_c.Log2(), h_opt.cost.Log2() - 1e-9);
}

}  // namespace
}  // namespace aqo
