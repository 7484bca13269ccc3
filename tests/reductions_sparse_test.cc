// Tests for the Section 6 sparse-query-graph reductions f_{N,e} and
// f_{H,e}: exact edge budgets, preserved YES-side witnesses, and the
// persistence of the gap structure.

#include <gtest/gtest.h>

#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/optimizers.h"
#include "reductions/sparse.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(EdgeBudgets, Formulas) {
  EXPECT_EQ(SparseEdgeBudget(100, 0.5), 110);
  EXPECT_EQ(DenseEdgeBudget(100, 0.5), 4950 - 10);
  EXPECT_EQ(SparseEdgeBudget(64, 0.75), 64 + 23);  // ceil(64^0.75) = 23
}

TEST(SparseQon, ConstructionMeetsEdgeBudget) {
  Rng rng(101);
  Graph g1 = CliqueClassGraph(6, 2, 1.0, 4, &rng);
  for (double tau : {0.4, 0.6}) {
    SparseQonParams params;
    params.base = {.c = 4.0 / 6.0, .d = 1.0 / 3.0, .log2_alpha = 64.0};
    params.k = 3;  // m = 216
    params.edge_budget = SparseEdgeBudget(216, tau);
    SparseQonGapInstance gap = ReduceCliqueToSparseQon(g1, params, &rng);
    EXPECT_EQ(QonInvariantViolation(gap.instance), "");
    EXPECT_EQ(gap.m, 216);
    EXPECT_EQ(static_cast<int64_t>(gap.instance.graph().NumEdges()),
              params.edge_budget);
    EXPECT_TRUE(gap.instance.graph().IsConnected());
    // Source subgraph preserved.
    for (const auto& [u, v] : g1.Edges()) {
      EXPECT_TRUE(gap.instance.graph().HasEdge(u, v));
    }
  }
}

TEST(SparseQon, DenseBudgetAlsoWorks) {
  Rng rng(102);
  Graph g1 = CliqueClassGraph(5, 2, 1.0, 3, &rng);
  SparseQonParams params;
  params.base = {.c = 0.6, .d = 0.2, .log2_alpha = 64.0};
  params.k = 2;  // m = 25
  params.edge_budget = DenseEdgeBudget(25, 0.5);
  SparseQonGapInstance gap = ReduceCliqueToSparseQon(g1, params, &rng);
  EXPECT_EQ(static_cast<int64_t>(gap.instance.graph().NumEdges()),
            params.edge_budget);
}

TEST(SparseQon, WitnessStaysWithinSlackOfK) {
  // Theorem 16 YES side: the clique-first witness costs at most K times
  // the auxiliary slack, and — with alpha chosen large in the paper's
  // spirit — that slack is a small fraction of one alpha power, so the
  // NO floor K * alpha^{(d/2)n - 1} still clears it.
  Rng rng(103);
  std::vector<int> planted;
  Graph g1 = CliqueClassGraph(8, 2, 1.0, 6, &rng, &planted);
  SparseQonParams params;
  // c = 6/8, d = 1/2: NO floor gains (d/2)n - 1 = 1 full alpha power.
  params.base = {.c = 0.75, .d = 0.5, .log2_alpha = 60000.0};
  params.k = 3;  // m = 512
  params.edge_budget = SparseEdgeBudget(512, 0.6);
  SparseQonGapInstance gap = ReduceCliqueToSparseQon(g1, params, &rng);

  // Slack = beta^{n (m-n)} = 2^{2 * 8 * 504}: about 0.13 alpha powers.
  EXPECT_LT(gap.AuxiliarySlack().Log2(), 0.2 * params.base.log2_alpha);

  JoinSequence witness = SparseQonWitness(gap, g1, planted);
  EXPECT_FALSE(HasCartesianProduct(gap.instance.graph(), witness));
  // V1 comes first.
  for (int i = 0; i < gap.n; ++i)
    EXPECT_LT(witness[static_cast<size_t>(i)], gap.n);
  LogDouble cost = QonSequenceCost(gap.instance, witness);
  LogDouble budget = gap.KBound() * gap.AuxiliarySlack() *
                     gap.alpha.Pow(0.5);  // headroom
  EXPECT_LE(cost.Log2(), budget.Log2());
  // ... and the NO floor dwarfs witness + slack: the gap survives the
  // embedding.
  EXPECT_GT(gap.NoSideBound().Log2(), budget.Log2());
}

TEST(SparseQoh, ConstructionMeetsEdgeBudgetAndForcesSentinel) {
  Rng rng(104);
  Graph g1 = Graph::Complete(9);
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;  // m = 81
  params.edge_budget = SparseEdgeBudget(81, 0.9);
  SparseQohGapInstance gap = ReduceTwoThirdsCliqueToSparseQoh(g1, params, &rng);
  EXPECT_EQ(QohInvariantViolation(gap.instance), "");
  EXPECT_EQ(gap.m, 81);
  EXPECT_EQ(static_cast<int64_t>(gap.instance.graph().NumEdges()),
            params.edge_budget);
  EXPECT_TRUE(gap.instance.graph().IsConnected());

  // A sequence not starting with R_0 is infeasible.
  JoinSequence bad = IdentitySequence(81);
  std::swap(bad[0], bad[5]);
  EXPECT_FALSE(OptimalDecomposition(gap.instance, bad).feasible);
}

TEST(SparseQoh, WitnessFeasibleAndWithinSlackOfL) {
  Rng rng(105);
  std::vector<int> planted;
  Graph g1 = CliqueClassGraph(9, 3, 0.9, 6, &rng, &planted);
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;
  params.edge_budget = SparseEdgeBudget(81, 0.9);
  SparseQohGapInstance gap = ReduceTwoThirdsCliqueToSparseQoh(g1, params, &rng);

  QohWitnessPlan plan = SparseQohWitness(gap, g1, planted);
  PipelineCostResult cost =
      DecompositionCost(gap.instance, plan.sequence, plan.decomposition);
  ASSERT_TRUE(cost.feasible);
  // The V2 phase multiplies intermediates by at most prod of V2 sizes =
  // 2^{n (m-n-1)}: the slack of Theorem 17. (The paper kills it with
  // alpha >= 2^{Theta(n m)}; the exact linear-domain memory model caps
  // log2 alpha at 104/(n-1), so at implementable sizes the slack is what
  // it is — we verify the accounting, and the V1-phase floor below.)
  double slack_log2 =
      static_cast<double>(gap.n) * static_cast<double>(gap.m - gap.n - 1) +
      20.0;
  EXPECT_LE(cost.cost.Log2(), gap.LBound().Log2() + slack_log2);
}

TEST(SparseQoh, GreedyPlansOnNoInstancesStayAboveFloor) {
  // NO side, empirically: connectivity-greedy sequences on an
  // omega-deficient source keep their optimal decompositions above
  // G(alpha, n) (over slack).
  Rng rng(106);
  Graph g1(9);
  int omega = 9;
  while (omega > 3) {
    g1 = Gnp(9, 0.33, &rng);
    omega = static_cast<int>(MaxClique(g1).clique.size());
  }
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;
  params.edge_budget = SparseEdgeBudget(81, 0.9);
  SparseQohGapInstance gap = ReduceTwoThirdsCliqueToSparseQoh(g1, params, &rng);

  double epsilon = 2.0 - 3.0 * static_cast<double>(omega) / 9.0;
  double floor_log2 = gap.GBound(epsilon).Log2();
  for (int trial = 0; trial < 20; ++trial) {
    // Random feasible sequence: R_0 first, then a random permutation.
    JoinSequence seq = {0};
    JoinSequence rest = IdentitySequence(gap.m);
    rest.erase(rest.begin());
    rng.Shuffle(&rest);
    seq.insert(seq.end(), rest.begin(), rest.end());
    QohPlan plan = OptimalDecomposition(gap.instance, seq);
    if (!plan.feasible) continue;
    EXPECT_GE(plan.cost.Log2(), floor_log2 - 6.0) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace aqo
