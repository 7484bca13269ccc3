// Tests for the f_H reduction (Section 5): forced sentinel-first plans,
// the Lemma 11 intermediate-size bounds, the Lemma 12 witness, and the
// Lemma 13/14 NO-side floor — exhaustively for n = 9.

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/cost_eval.h"
#include "qo/optimizers.h"
#include "reductions/clique_to_qoh.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

// Exhaustive optimum over all sequences that start with relation `first`.
// The sweep prices every sequence on one QohCostEvaluator, which walks the
// next_permutation order incrementally; the naive OptimalDecomposition
// then re-prices the winner and must agree bit for bit, so callers read
// the naive reference's numbers.
QohPlan BestPlanStartingWith(const QohInstance& inst, int first) {
  int n = inst.NumRelations();
  JoinSequence rest;
  for (int i = 0; i < n; ++i) {
    if (i != first) rest.push_back(i);
  }
  QohCostEvaluator evaluator(inst);
  QohPlan best;
  JoinSequence best_seq;
  do {
    JoinSequence seq = {first};
    seq.insert(seq.end(), rest.begin(), rest.end());
    const QohPlan& plan = evaluator.Evaluate(seq);
    if (plan.feasible && (!best.feasible || plan.cost < best.cost)) {
      best = plan;
      best_seq = std::move(seq);
    }
  } while (std::next_permutation(rest.begin(), rest.end()));
  if (!best.feasible) return best;
  QohPlan naive = OptimalDecomposition(inst, best_seq);
  EXPECT_TRUE(naive.feasible);
  EXPECT_EQ(naive.cost.Log2(), best.cost.Log2());
  return naive;
}

TEST(ReduceTwoThirdsCliqueToQoh, ConstructionShape) {
  Graph g = Graph::Complete(9);
  QohGapParams params;  // alpha = 4, eta = 0.5
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, params);
  EXPECT_EQ(QohInvariantViolation(gap.instance), "");
  EXPECT_EQ(gap.instance.NumRelations(), 10);
  // t = 4^4 = 256; t0 = (9 * 256)^12.
  EXPECT_DOUBLE_EQ(gap.t.Log2(), 8.0);
  EXPECT_NEAR(gap.t0.Log2(), 12.0 * std::log2(9.0 * 256.0), 1e-9);
  EXPECT_DOUBLE_EQ(gap.instance.size(0).Log2(), gap.t0.Log2());
  // M = (n/3 - 1) t + 2 hjmin(t) = 2*256 + 2*16.
  EXPECT_DOUBLE_EQ(gap.instance.memory(), 544.0);
  // Spokes 1/2, clique edges 1/alpha.
  EXPECT_DOUBLE_EQ(gap.instance.selectivity(0, 3).Log2(), -1.0);
  EXPECT_DOUBLE_EQ(gap.instance.selectivity(1, 2).Log2(), -2.0);
}

TEST(ReduceTwoThirdsCliqueToQoh, SentinelFirstIsForced) {
  // Any sequence that does not start with R_0 must build a hash table on
  // R_0 and is infeasible.
  Graph g = Graph::Complete(9);
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
  Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    JoinSequence seq = IdentitySequence(10);
    rng.Shuffle(&seq);
    QohPlan plan = OptimalDecomposition(gap.instance, seq);
    EXPECT_EQ(plan.feasible, seq[0] == 0) << "trial=" << trial;
  }
}

TEST(Lemma11, WitnessIntermediatesStayBelowL) {
  Graph g = Graph::Complete(9);  // omega = 9 >= 2n/3
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
  std::vector<int> clique = {0, 1, 2, 3, 4, 5};
  QohWitnessPlan plan = QohYesWitness(gap, clique);
  std::vector<LogDouble> prefix = PrefixSizes(gap.instance, plan.sequence);
  double l_log2 = gap.LBound().Log2();
  // Paper indices: N_j = prefix[j + 1]; check N_1, N_{n/3}, N_{2n/3},
  // N_{n-1}, N_n (the materialized intermediates).
  for (int j : {1, 3, 6, 8, 9}) {
    EXPECT_LE(prefix[static_cast<size_t>(j) + 1].Log2(), l_log2 + 1e-6)
        << "N_" << j << " exceeds L";
  }
}

TEST(Lemma12, WitnessPlanFeasibleAndCheap) {
  Rng rng(92);
  // A (2/3)CLIQUE YES instance that is not complete: plant a 6-clique.
  std::vector<int> planted;
  Graph g = CliqueClassGraph(9, 3, 0.8, 6, &rng, &planted);
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
  QohWitnessPlan plan = QohYesWitness(gap, planted);
  PipelineCostResult cost =
      DecompositionCost(gap.instance, plan.sequence, plan.decomposition);
  ASSERT_TRUE(cost.feasible);
  // O(L): within a modest constant factor of L(alpha, n).
  EXPECT_LE(cost.cost.Log2(), gap.LBound().Log2() + 4.0);
}

TEST(Lemma12, WitnessPipelineP3StarvesExactlyOneJoin) {
  // P3 has n/3 joins but only n/3 - 1 full hash tables fit: exactly one
  // join runs at hjmin (Lemma 10, case 2).
  Graph g = Graph::Complete(9);
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
  std::vector<int> clique = {0, 1, 2, 3, 4, 5};
  QohWitnessPlan plan = QohYesWitness(gap, clique);
  // P3 covers joins n/3+1 .. 2n/3 = 4..6.
  PipelineCostResult p3 = OptimalPipelineCost(gap.instance, plan.sequence, 4, 6);
  ASSERT_TRUE(p3.feasible);
  double t = gap.t.ToLinear();
  int starved = 0, full = 0;
  for (double m : p3.allocation) {
    if (m == t) {
      ++full;
    } else {
      ++starved;
      // The starved join sits near the floor: it gets hjmin plus the spare
      // hjmin the paper's allocation leaves unused (2 * hjmin(t) = 32).
      EXPECT_LE(m, 2.0 * 16.0);
      EXPECT_GE(m, 16.0);
    }
  }
  EXPECT_EQ(starved, 1);
  EXPECT_EQ(full, 2);
}

TEST(Theorem15, ExhaustiveGapAtN9) {
  // YES: complete source graph (omega = 9); NO: omega = 3 = (2-eps)n/3
  // with eps = 1. The exhaustive optimum must sit below L (times slack) on
  // the YES side and above G (over slack) on the NO side.
  Graph yes_graph = Graph::Complete(9);
  QohGapInstance yes_gap = ReduceTwoThirdsCliqueToQoh(yes_graph, QohGapParams{});
  QohPlan yes_best = BestPlanStartingWith(yes_gap.instance, 0);
  ASSERT_TRUE(yes_best.feasible);
  EXPECT_LE(yes_best.cost.Log2(), yes_gap.LBound().Log2() + 4.0);

  // NO: 3 disjoint triangles plus a perfect matching between them keeps
  // omega = 3; we verify omega with the exact solver.
  Rng rng(93);
  Graph no_graph(9);
  int omega = 9;
  while (omega > 3) {
    no_graph = Gnp(9, 0.33, &rng);
    omega = static_cast<int>(MaxClique(no_graph).clique.size());
  }
  QohGapInstance no_gap = ReduceTwoThirdsCliqueToQoh(no_graph, QohGapParams{});
  QohPlan no_best = BestPlanStartingWith(no_gap.instance, 0);
  ASSERT_TRUE(no_best.feasible);
  double epsilon = 2.0 - 3.0 * omega / 9.0;  // omega = (2-eps) n/3
  EXPECT_GE(no_best.cost.Log2(), no_gap.GBound(epsilon).Log2() - 4.0);

  // And the measured YES/NO gap is at least alpha^{n eps/3 - 1} / slack.
  EXPECT_GE(no_best.cost.Log2() - yes_best.cost.Log2(),
            no_gap.GBound(epsilon).Log2() - no_gap.LBound().Log2() - 8.0);
}

TEST(Theorem15, BoundFormulas) {
  Graph g = Graph::Complete(12);
  QohGapParams params;
  params.log2_alpha = 2.0;
  QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, params);
  // log L = log t0 + (n^2/9) log alpha.
  EXPECT_DOUBLE_EQ(gap.LBound().Log2(), gap.t0.Log2() + 16.0 * 2.0);
  // G = L * alpha^{n eps/3 - 1}.
  EXPECT_DOUBLE_EQ(gap.GBound(0.5).Log2(),
                   gap.LBound().Log2() + (12.0 * 0.5 / 3.0 - 1.0) * 2.0);
}

}  // namespace
}  // namespace aqo
