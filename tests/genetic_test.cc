// Tests for the genetic join-order optimizer.

#include "qo/genetic.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/optimizers.h"
#include "util/random.h"

namespace aqo {
namespace {

QonInstance RandomInstance(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLinear(static_cast<double>(rng->UniformInt(2, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.001, 1.0)));
  }
  return inst;
}

TEST(Genetic, ProducesValidSequences) {
  Rng rng(151);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 14));
    QonInstance inst = RandomInstance(n, 0.6, &rng);
    OptimizerOptions options;
    options.ga.generations = 30;
    OptimizerResult r = GeneticOptimizer(inst, &rng, options);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(IsPermutation(r.sequence, n));
    EXPECT_TRUE(QonSequenceCost(inst, r.sequence).ApproxEquals(r.cost, 1e-9));
  }
}

TEST(Genetic, NeverBeatsExactOptimum) {
  Rng rng(152);
  for (int trial = 0; trial < 10; ++trial) {
    QonInstance inst = RandomInstance(8, 0.7, &rng);
    OptimizerResult opt = DpQonOptimizer(inst);
    OptimizerResult ga = GeneticOptimizer(inst, &rng);
    ASSERT_TRUE(opt.feasible && ga.feasible);
    EXPECT_GE(ga.cost.Log2(), opt.cost.Log2() - 1e-9);
  }
}

TEST(Genetic, UsuallyFindsOptimumOnSmallInstances) {
  Rng rng(153);
  int hits = 0;
  for (int trial = 0; trial < 15; ++trial) {
    QonInstance inst = RandomInstance(7, 0.8, &rng);
    OptimizerResult opt = DpQonOptimizer(inst);
    OptimizerResult ga = GeneticOptimizer(inst, &rng);
    if (ga.cost.ApproxEquals(opt.cost, 1e-6)) ++hits;
  }
  EXPECT_GE(hits, 12);
}

TEST(Genetic, RespectsCartesianRestriction) {
  Rng rng(154);
  for (int trial = 0; trial < 10; ++trial) {
    QonInstance inst = RandomInstance(9, 0.6, &rng);
    if (!inst.graph().IsConnected()) continue;
    OptimizerOptions options;
    options.forbid_cartesian = true;
    options.ga.generations = 60;
    OptimizerResult r = GeneticOptimizer(inst, &rng, options);
    if (r.feasible) {
      EXPECT_FALSE(HasCartesianProduct(inst.graph(), r.sequence));
    }
  }
}

TEST(Genetic, BeatsRandomSamplingAtEqualBudget) {
  Rng rng(155);
  int wins = 0, trials = 12;
  for (int t = 0; t < trials; ++t) {
    QonInstance inst = RandomInstance(16, 0.6, &rng);
    OptimizerOptions options;
    options.ga.population = 50;
    options.ga.generations = 40;  // ~2000 evaluations
    OptimizerResult ga = GeneticOptimizer(inst, &rng, options);
    OptimizerOptions rs_options;
    rs_options.samples = 2000;
    OptimizerResult rs = RandomSamplingOptimizer(inst, &rng, rs_options);
    if (ga.feasible && rs.feasible && ga.cost <= rs.cost) ++wins;
  }
  EXPECT_GE(wins, trials / 2);
}

}  // namespace
}  // namespace aqo
