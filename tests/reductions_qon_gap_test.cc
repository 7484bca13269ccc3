// Tests for the f_N reduction (Section 4): construction shape, the
// Lemma 5/6/7/8 inequalities, and the YES/NO cost gap on small instances
// where the exact DP optimizer provides ground truth.

#include <gtest/gtest.h>

#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/optimizers.h"
#include "reductions/clique_to_qon.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(ReduceCliqueToQon, ConstructionShape) {
  Rng rng(81);
  Graph g = Gnp(10, 0.5, &rng);
  QonGapParams params{.c = 0.8, .d = 0.2, .log2_alpha = 4.0};
  QonGapInstance gap = ReduceCliqueToQon(g, params);
  EXPECT_EQ(QonInvariantViolation(gap.instance), "");
  EXPECT_EQ(gap.instance.NumRelations(), 10);
  EXPECT_EQ(gap.instance.graph(), g);
  // t = alpha^{(c - d/2) n} = 2^{4 * 0.7 * 10}.
  EXPECT_DOUBLE_EQ(gap.t.Log2(), 28.0);
  EXPECT_DOUBLE_EQ(gap.w.Log2(), 24.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gap.instance.size(i).Log2(), gap.t.Log2());
    for (int j = 0; j < 10; ++j) {
      if (i == j) continue;
      if (g.HasEdge(i, j)) {
        EXPECT_DOUBLE_EQ(gap.instance.selectivity(i, j).Log2(), -4.0);
        EXPECT_DOUBLE_EQ(gap.instance.AccessCost(i, j).Log2(), gap.w.Log2());
      } else {
        EXPECT_EQ(gap.instance.selectivity(i, j).Log2(), 0.0);
        EXPECT_DOUBLE_EQ(gap.instance.AccessCost(i, j).Log2(), gap.t.Log2());
      }
    }
  }
}

TEST(ReduceCliqueToQon, KBoundFormula) {
  Rng rng(82);
  Graph g = Gnp(10, 0.5, &rng);
  QonGapParams params{.c = 0.8, .d = 0.2, .log2_alpha = 4.0};
  QonGapInstance gap = ReduceCliqueToQon(g, params);
  double p = 0.7 * 10;
  EXPECT_DOUBLE_EQ(gap.PeakPosition(), p);
  EXPECT_DOUBLE_EQ(gap.KBound().Log2(),
                   gap.w.Log2() + 4.0 * (p * (p + 1) / 2 + 1));
  // Theorem 9(3): log K = Theta(n^2 log alpha).
  EXPECT_NEAR(gap.KBound().Log2() / (10.0 * 10.0 * 4.0), 0.25, 0.15);
}

TEST(Lemma7, EdgeBoundHoldsOnRandomGraphs) {
  Rng rng(83);
  for (int trial = 0; trial < 100; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 16));
    Graph g = Gnp(n, rng.UniformReal(0.0, 1.0), &rng);
    int omega = static_cast<int>(MaxClique(g).clique.size());
    EXPECT_LE(g.NumEdges(), n * (n - 1) / 2 - n + omega);
  }
}

TEST(Lemma6, CliqueFirstCostPeaksThenDecays) {
  // Along the clique prefix, H_i rises to the peak at (c - d/2) n and then
  // decays geometrically (Lemma 5) — on a large dense instance where the
  // paper's degree argument (n >= 30/d) applies.
  Rng rng(84);
  int n = 180;
  std::vector<int> planted;
  Graph g = CliqueClassGraph(n, 13, 1.0, 120, &rng, &planted);
  QonGapParams params{.c = 120.0 / 180.0, .d = 1.0 / 6.0, .log2_alpha = 2.0};
  QonGapInstance gap = ReduceCliqueToQon(g, params);

  JoinSequence witness = CliqueFirstWitness(g, planted);
  ASSERT_FALSE(HasCartesianProduct(g, witness));
  std::vector<LogDouble> h = QonJoinCosts(gap.instance, witness);

  int peak = static_cast<int>(gap.PeakPosition());  // = 120 - 15 = 105
  // Rising phase within the clique prefix.
  for (int i = 1; i < peak - 1; ++i) {
    EXPECT_LE(h[static_cast<size_t>(i) - 1].Log2(),
              h[static_cast<size_t>(i)].Log2() + 1e-6)
        << "H_" << i << " > H_" << i + 1 << " before the peak";
  }
  // Lemma 5: beyond position cn, each H at most halves.
  for (int i = 120; i < n - 1; ++i) {
    EXPECT_LE(h[static_cast<size_t>(i)].Log2(),
              h[static_cast<size_t>(i) - 1].Log2() - 1.0)
        << "Lemma 5 decay violated at i=" << i;
  }
  // Lemma 6: total cost within K_{c,d}.
  LogDouble cost = QonSequenceCost(gap.instance, witness);
  EXPECT_LE(cost.Log2(), gap.KBound().Log2() + 1e-6);
  // ... and the bound is tight to within a factor alpha^2.
  EXPECT_GE(cost.Log2(), gap.KBound().Log2() - 2.0 * params.log2_alpha);
}

TEST(Lemma8, CertifiedLowerBoundIsSound) {
  // Every join sequence (DP gives the cheapest) costs at least the
  // certified floor computed from an omega upper bound.
  Rng rng(85);
  for (int trial = 0; trial < 25; ++trial) {
    int n = static_cast<int>(rng.UniformInt(6, 12));
    Graph g = Gnp(n, rng.UniformReal(0.3, 0.9), &rng);
    QonGapParams params{.c = 0.75, .d = 0.25,
                        .log2_alpha = rng.UniformReal(2.0, 6.0)};
    QonGapInstance gap = ReduceCliqueToQon(g, params);
    int omega = static_cast<int>(MaxClique(g).clique.size());
    OptimizerResult opt = DpQonOptimizer(gap.instance);
    ASSERT_TRUE(opt.feasible);
    EXPECT_GE(opt.cost.Log2(),
              gap.CertifiedLowerBound(omega).Log2() - 1e-6)
        << "trial=" << trial << " n=" << n << " omega=" << omega;
  }
}

TEST(Theorem9, YesNoGapOnSmallInstances) {
  // End-to-end gap with exact (DP) optima at n = 12. At this scale the
  // asymptotic Lemma 6 tail argument (which needs n >= 30/d) does not bite
  // exactly, so the YES optimum is compared against K with a constant
  // alpha^2 slack; the NO floor clears K by alpha^{(d/2)n - 1} = alpha^3,
  // so the measured gap survives the slack.
  Rng rng(86);
  int n = 12;
  QonGapParams params{.c = 0.75, .d = 0.5, .log2_alpha = 6.0};

  // YES: dense CLIQUE-class graph with a planted clique of size cn = 9.
  std::vector<int> planted;
  Graph yes_graph = CliqueClassGraph(n, 2, 1.0, 9, &rng, &planted);
  QonGapInstance yes_gap = ReduceCliqueToQon(yes_graph, params);
  JoinSequence witness = CliqueFirstWitness(yes_graph, planted);
  LogDouble witness_cost = QonSequenceCost(yes_gap.instance, witness);
  OptimizerResult yes_opt = DpQonOptimizer(yes_gap.instance);
  ASSERT_TRUE(yes_opt.feasible);
  EXPECT_LE(yes_opt.cost.Log2(), witness_cost.Log2() + 1e-9);
  EXPECT_LE(yes_opt.cost.Log2(),
            yes_gap.KBound().Log2() + 2.0 * params.log2_alpha);

  // NO: omega <= (c-d)n = 3.
  Graph no_graph;
  int omega = 100;
  while (omega > 3) {
    no_graph = Gnp(n, 0.2, &rng);
    omega = static_cast<int>(MaxClique(no_graph).clique.size());
  }
  QonGapInstance no_gap = ReduceCliqueToQon(no_graph, params);
  OptimizerResult no_opt = DpQonOptimizer(no_gap.instance);
  ASSERT_TRUE(no_opt.feasible);
  LogDouble floor = no_gap.CertifiedLowerBound(omega);
  EXPECT_GE(no_opt.cost.Log2(), floor.Log2() - 1e-6);
  EXPECT_GE(floor.Log2(), no_gap.KBound().Log2() +
                              (params.d / 2.0 * n - 1.0) * params.log2_alpha -
                              1e-6);

  // The measured gap: NO optimum clears the YES optimum by >= alpha.
  EXPECT_GT(no_opt.cost.Log2(), yes_gap.KBound().Log2());
  EXPECT_GT(no_opt.cost.Log2(), yes_opt.cost.Log2() + params.log2_alpha);
}

TEST(Theorem9, CartesianProductsOnlyIncreaseCost) {
  // Section 4's closing remark: restricting to cartesian-free sequences
  // does not change the optimum on connected gap instances.
  Rng rng(87);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = Gnp(9, 0.6, &rng);
    if (!g.IsConnected()) continue;
    QonGapParams params{.c = 0.7, .d = 0.2, .log2_alpha = 3.0};
    QonGapInstance gap = ReduceCliqueToQon(g, params);
    OptimizerResult free = DpQonOptimizer(gap.instance);
    OptimizerOptions options;
    options.forbid_cartesian = true;
    OptimizerResult restricted = DpQonOptimizer(gap.instance, options);
    ASSERT_TRUE(free.feasible && restricted.feasible);
    EXPECT_TRUE(free.cost.ApproxEquals(restricted.cost, 1e-9));
  }
}

TEST(CliqueFirstWitness, HandlesDisconnectedGraphs) {
  Graph g = DisjointUnion(Graph::Complete(3), Chain(2));
  JoinSequence seq = CliqueFirstWitness(g, {0, 1, 2});
  EXPECT_TRUE(IsPermutation(seq, 5));
  EXPECT_EQ(seq[0], 0);
  EXPECT_EQ(seq[1], 1);
  EXPECT_EQ(seq[2], 2);
}

}  // namespace
}  // namespace aqo
