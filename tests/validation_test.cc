// Failure-injection tests: invalid instances and misuse must be rejected
// loudly (AQO_CHECK aborts), never silently produce wrong reductions.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/clique_to_qon.h"
#include "sat/cnf.h"
#include "sqo/sppcs.h"
#include "sqo/star_query.h"
#include "util/log_double.h"
#include "util/random.h"

namespace aqo {
namespace {

using ValidationDeathTest = ::testing::Test;

TEST(ValidationDeathTest, LogDoubleRejectsBadInputs) {
  EXPECT_DEATH(LogDouble::FromLinear(-1.0), "check failed");
  LogDouble small = LogDouble::FromLinear(1.0);
  LogDouble big = LogDouble::FromLinear(2.0);
  EXPECT_DEATH(small - big, "negative result");
  EXPECT_DEATH(small / LogDouble::Zero(), "division by zero");
  EXPECT_DEATH(LogDouble::Zero().Pow(-1.0), "negative power");
}

TEST(ValidationDeathTest, QonInstanceInvariants) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  std::vector<LogDouble> sizes(3, LogDouble::FromLinear(10.0));
  QonInstance inst(g, sizes);
  // Selectivity on a non-edge.
  EXPECT_DEATH(inst.SetSelectivity(0, 2, LogDouble::FromLinear(0.5)),
               "non-edge");
  // Selectivity above one.
  EXPECT_DEATH(inst.SetSelectivity(0, 1, LogDouble::FromLinear(2.0)),
               "check failed");
  // Access cost outside [t_j s, t_j].
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  EXPECT_DEATH(inst.SetAccessCost(0, 1, LogDouble::FromLinear(100.0)),
               "out of");
  EXPECT_DEATH(inst.SetAccessCost(0, 1, LogDouble::FromLinear(1.0)),
               "out of");
  // Zero relation size.
  EXPECT_DEATH(QonInstance(g, {LogDouble::Zero(), LogDouble::FromLinear(1.0),
                               LogDouble::FromLinear(1.0)}),
               "check failed");
}

TEST(ValidationDeathTest, CostFunctionsRejectNonPermutations) {
  Graph g = Graph::Complete(3);
  QonInstance inst(g, std::vector<LogDouble>(3, LogDouble::FromLinear(4.0)));
  EXPECT_DEATH(QonSequenceCost(inst, {0, 1}), "check failed");
  EXPECT_DEATH(QonSequenceCost(inst, {0, 1, 1}), "check failed");
  EXPECT_DEATH(QonSequenceCost(inst, {0, 1, 5}), "check failed");
}

TEST(ValidationDeathTest, QohInstanceInvariants) {
  Graph g = Graph::Complete(3);
  std::vector<LogDouble> sizes(3, LogDouble::FromLinear(16.0));
  EXPECT_DEATH(QohInstance(g, sizes, /*memory=*/-5.0), "check failed");
  EXPECT_DEATH(QohInstance(g, sizes, /*memory=*/0.0), "check failed");
  EXPECT_DEATH(QohInstance(g, sizes, 100.0, /*eta=*/1.5), "check failed");
}

TEST(ValidationDeathTest, PipelineBoundsChecked) {
  Graph g = Graph::Complete(4);
  QohInstance inst(g, std::vector<LogDouble>(4, LogDouble::FromLinear(16.0)),
                   1000.0);
  JoinSequence seq = IdentitySequence(4);
  EXPECT_DEATH(OptimalPipelineCost(inst, seq, 0, 2), "check failed");
  EXPECT_DEATH(OptimalPipelineCost(inst, seq, 2, 1), "check failed");
  EXPECT_DEATH(OptimalPipelineCost(inst, seq, 1, 7), "check failed");
  PipelineDecomposition bad;
  bad.starts = {2};  // must start at join 1
  EXPECT_DEATH(DecompositionCost(inst, seq, bad), "must start at join 1");
}

TEST(ValidationDeathTest, ReductionsGuardTheirPreconditions) {
  Rng rng(161);
  Graph g = Gnp(10, 0.5, &rng);
  // alpha < 4.
  EXPECT_DEATH(
      ReduceCliqueToQon(g, QonGapParams{.c = 0.5, .d = 0.2, .log2_alpha = 1.0}),
      "alpha");
  // d >= c.
  EXPECT_DEATH(
      ReduceCliqueToQon(g, QonGapParams{.c = 0.5, .d = 0.6, .log2_alpha = 4.0}),
      "check failed");
  // f_H needs n divisible by 3 ...
  EXPECT_DEATH(ReduceTwoThirdsCliqueToQoh(Graph::Complete(10), QohGapParams{}),
               "divisible by 3");
  // ... and t exactly representable.
  QohGapParams big_alpha;
  big_alpha.log2_alpha = 30.0;
  EXPECT_DEATH(ReduceTwoThirdsCliqueToQoh(Graph::Complete(9), big_alpha),
               "exact in double");
}

TEST(ValidationDeathTest, SqoCpGuards) {
  SppcsInstance sppcs;
  sppcs.pairs = {{BigInt(1), BigInt(3)}};  // p < 2 violates the WLOG
  sppcs.l_bound = 5;
  EXPECT_DEATH(ReduceSppcsToSqoCp(sppcs), "p_i >= 2");
  sppcs.pairs = {{BigInt(3), BigInt(0)}};
  EXPECT_DEATH(ReduceSppcsToSqoCp(sppcs), "c_i >= 1");

  SqoCpInstance inst;
  inst.num_satellites = 1;
  inst.central_tuples = 5;
  inst.central_pages = 5;
  inst.tuples = {BigInt(10)};
  inst.pages = {BigInt(10)};
  inst.match = {BigInt(0)};  // zero match factor is invalid
  inst.w = {BigInt(1)};
  inst.w0 = {BigInt(1)};
  EXPECT_DEATH(inst.Validate(), "match factor");
}

TEST(ValidationDeathTest, CnfGuards) {
  CnfFormula f(2);
  EXPECT_DEATH(f.AddClause({}), "empty clause");
  EXPECT_DEATH(f.AddClause({0}), "check failed");
  EXPECT_DEATH(f.AddClause({3}), "out of range");
}

TEST(ValidationDeathTest, OptimizerSizeGuards) {
  Rng rng(162);
  Graph g = Gnp(12, 0.5, &rng);
  QonInstance inst(g, std::vector<LogDouble>(12, LogDouble::FromLinear(8.0)));
  EXPECT_DEATH(ExhaustiveQonOptimizer(inst), "n!");
}

}  // namespace
}  // namespace aqo
