// Tests for the QO_N/QO_H optimizer suite: exactness cross-checks and
// feasibility behaviour under the no-cartesian-product restriction.

#include "qo/optimizers.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/ikkbz.h"
#include "util/random.h"

namespace aqo {
namespace {

QonInstance RandomInstance(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(LogDouble::FromLinear(
        static_cast<double>(rng->UniformInt(2, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.001, 1.0)));
  }
  return inst;
}

TEST(DpOptimizer, MatchesExhaustive) {
  Rng rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 8));
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.2, 1.0), &rng);
    OptimizerResult dp = DpQonOptimizer(inst);
    OptimizerResult ex = ExhaustiveQonOptimizer(inst);
    ASSERT_TRUE(dp.feasible && ex.feasible);
    EXPECT_TRUE(dp.cost.ApproxEquals(ex.cost, 1e-9))
        << "trial=" << trial << ": " << dp.cost.Log2() << " vs "
        << ex.cost.Log2();
  }
}

TEST(DpOptimizer, MatchesExhaustiveNoCartesian) {
  Rng rng(62);
  OptimizerOptions options;
  options.forbid_cartesian = true;
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 8));
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.3, 1.0), &rng);
    OptimizerResult dp = DpQonOptimizer(inst, options);
    OptimizerResult ex = ExhaustiveQonOptimizer(inst, options);
    ASSERT_EQ(dp.feasible, ex.feasible);
    if (dp.feasible) {
      EXPECT_TRUE(dp.cost.ApproxEquals(ex.cost, 1e-9));
      EXPECT_FALSE(HasCartesianProduct(inst.graph(), dp.sequence));
    }
  }
}

TEST(DpOptimizer, InfeasibleOnDisconnectedWhenCartesianForbidden) {
  Rng rng(63);
  Graph g = DisjointUnion(Chain(3), Chain(3));
  std::vector<LogDouble> sizes(6, LogDouble::FromLinear(10.0));
  QonInstance inst(g, sizes);
  OptimizerOptions options;
  options.forbid_cartesian = true;
  EXPECT_FALSE(DpQonOptimizer(inst, options).feasible);
  EXPECT_TRUE(DpQonOptimizer(inst).feasible);
}

TEST(Heuristics, NeverBeatTheOptimumAndStayFeasible) {
  Rng rng(64);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 9));
    QonInstance inst = RandomInstance(n, 0.7, &rng);
    OptimizerResult opt = DpQonOptimizer(inst);
    ASSERT_TRUE(opt.feasible);

    OptimizerResult greedy = GreedyQonOptimizer(inst);
    ASSERT_TRUE(greedy.feasible);
    EXPECT_GE(greedy.cost.Log2(), opt.cost.Log2() - 1e-9);
    EXPECT_TRUE(IsPermutation(greedy.sequence, n));

    OptimizerOptions sample_options;
    sample_options.samples = 50;
    OptimizerResult sampled = RandomSamplingOptimizer(inst, &rng, sample_options);
    ASSERT_TRUE(sampled.feasible);
    EXPECT_GE(sampled.cost.Log2(), opt.cost.Log2() - 1e-9);

    OptimizerOptions ii_options;
    ii_options.restarts = 3;
    OptimizerResult ii = IterativeImprovementOptimizer(inst, &rng, ii_options);
    ASSERT_TRUE(ii.feasible);
    EXPECT_GE(ii.cost.Log2(), opt.cost.Log2() - 1e-9);

    OptimizerOptions sa_options;
    sa_options.sa.iterations = 2000;
    sa_options.sa.restarts = 2;
    OptimizerResult sa = SimulatedAnnealingOptimizer(inst, &rng, sa_options);
    ASSERT_TRUE(sa.feasible);
    EXPECT_GE(sa.cost.Log2(), opt.cost.Log2() - 1e-9);
  }
}

TEST(Heuristics, LocalSearchFindsOptimumOnTinyInstances) {
  Rng rng(65);
  int hits = 0;
  for (int trial = 0; trial < 20; ++trial) {
    QonInstance inst = RandomInstance(5, 0.8, &rng);
    OptimizerResult opt = DpQonOptimizer(inst);
    OptimizerOptions ii_options;
    ii_options.restarts = 8;
    OptimizerResult ii = IterativeImprovementOptimizer(inst, &rng, ii_options);
    if (ii.cost.ApproxEquals(opt.cost, 1e-6)) ++hits;
  }
  EXPECT_GE(hits, 15);  // 2-swap local search cracks most 5-relation cases
}

TEST(Heuristics, RespectCartesianRestriction) {
  Rng rng(66);
  OptimizerOptions options;
  options.forbid_cartesian = true;
  OptimizerOptions sampling_options = options;
  sampling_options.samples = 20;
  OptimizerOptions ii_options = options;
  ii_options.restarts = 2;
  for (int trial = 0; trial < 10; ++trial) {
    QonInstance inst = RandomInstance(8, 0.5, &rng);
    if (!inst.graph().IsConnected()) continue;
    for (const OptimizerResult& r :
         {GreedyQonOptimizer(inst, options),
          RandomSamplingOptimizer(inst, &rng, sampling_options),
          IterativeImprovementOptimizer(inst, &rng, ii_options)}) {
      ASSERT_TRUE(r.feasible);
      EXPECT_FALSE(HasCartesianProduct(inst.graph(), r.sequence));
    }
  }
}

TEST(QohOptimizers, ExhaustiveFindsFeasiblePlanAndGreedyNeverBeatsIt) {
  Rng rng(67);
  for (int trial = 0; trial < 15; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 6));
    Graph g = Gnp(n, 0.7, &rng);
    std::vector<LogDouble> sizes(static_cast<size_t>(n),
                                 LogDouble::FromLinear(64.0));
    QohInstance inst(g, sizes, rng.UniformReal(50.0, 400.0));
    for (const auto& [u, v] : g.Edges()) {
      inst.SetSelectivity(u, v, LogDouble::FromLinear(0.5));
    }
    QohOptimizerResult ex = ExhaustiveQohOptimizer(inst);
    ASSERT_TRUE(ex.feasible);
    QohOptimizerResult greedy = GreedyQohOptimizer(inst);
    if (greedy.feasible) {
      EXPECT_GE(greedy.cost.Log2(), ex.cost.Log2() - 1e-9);
    }
  }
}

TEST(Ikkbz, MatchesDpOnRandomTrees) {
  Rng rng(68);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 10));
    Graph g = RandomTree(n, &rng);
    std::vector<LogDouble> sizes;
    for (int i = 0; i < n; ++i) {
      sizes.push_back(LogDouble::FromLinear(
          static_cast<double>(rng.UniformInt(2, 10000))));
    }
    QonInstance inst(g, std::move(sizes));
    for (const auto& [u, v] : g.Edges()) {
      inst.SetSelectivity(u, v,
                          LogDouble::FromLinear(rng.UniformReal(0.001, 1.0)));
    }
    OptimizerOptions options;
    options.forbid_cartesian = true;
    OptimizerResult dp = DpQonOptimizer(inst, options);
    OptimizerResult kbz = IkkbzOptimizer(inst);
    ASSERT_TRUE(dp.feasible && kbz.feasible);
    EXPECT_TRUE(kbz.cost.ApproxEquals(dp.cost, 1e-6))
        << "trial=" << trial << " n=" << n << ": kbz=" << kbz.cost.Log2()
        << " dp=" << dp.cost.Log2();
    EXPECT_FALSE(HasCartesianProduct(g, kbz.sequence));
  }
}

TEST(Ikkbz, HandlesChainsAndStars) {
  Rng rng(69);
  for (const Graph& g : {Chain(12), Star(12)}) {
    std::vector<LogDouble> sizes;
    for (int i = 0; i < 12; ++i) {
      sizes.push_back(LogDouble::FromLinear(
          static_cast<double>(rng.UniformInt(2, 500))));
    }
    QonInstance inst(g, std::move(sizes));
    for (const auto& [u, v] : g.Edges()) {
      inst.SetSelectivity(u, v,
                          LogDouble::FromLinear(rng.UniformReal(0.01, 1.0)));
    }
    OptimizerResult kbz = IkkbzOptimizer(inst);
    ASSERT_TRUE(kbz.feasible);
    EXPECT_TRUE(IsPermutation(kbz.sequence, 12));
    EXPECT_FALSE(HasCartesianProduct(g, kbz.sequence));
  }
}

TEST(Ikkbz, RejectsNonTrees) {
  EXPECT_FALSE(IsTreeQueryGraph(Cycle(5)));
  EXPECT_FALSE(IsTreeQueryGraph(DisjointUnion(Chain(2), Chain(2))));
  EXPECT_TRUE(IsTreeQueryGraph(Chain(5)));
  EXPECT_TRUE(IsTreeQueryGraph(Star(5)));
}

}  // namespace
}  // namespace aqo
