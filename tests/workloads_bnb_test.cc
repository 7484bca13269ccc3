// Tests for the workload generators and the branch & bound optimizer, plus
// large-operand BigInt multiplication and the Appendix B sort-regime
// validator.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "qo/bnb.h"
#include "qo/optimizers.h"
#include "qo/workloads.h"
#include "sqo/sppcs.h"
#include "sqo/star_query.h"
#include "tests/instance_oracle.h"
#include "util/bigint.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(Workloads, ShapesHaveExpectedGraphs) {
  Rng rng(171);
  WorkloadOptions options;
  options.shape = WorkloadShape::kChain;
  EXPECT_EQ(RandomQonWorkload(10, &rng, options).graph().NumEdges(), 9);
  options.shape = WorkloadShape::kStar;
  EXPECT_EQ(RandomQonWorkload(10, &rng, options).graph().Degree(0), 9);
  options.shape = WorkloadShape::kCycle;
  EXPECT_EQ(RandomQonWorkload(10, &rng, options).graph().NumEdges(), 10);
  options.shape = WorkloadShape::kClique;
  EXPECT_EQ(RandomQonWorkload(10, &rng, options).graph().NumEdges(), 45);
  options.shape = WorkloadShape::kTree;
  QonInstance tree = RandomQonWorkload(10, &rng, options);
  EXPECT_EQ(tree.graph().NumEdges(), 9);
  EXPECT_TRUE(tree.graph().IsConnected());
}

TEST(Workloads, InstancesValidateAndRespectBounds) {
  Rng rng(172);
  WorkloadOptions options;
  options.min_size = 100.0;
  options.max_size = 1000.0;
  options.min_selectivity = 0.01;
  options.max_selectivity = 0.5;
  for (int trial = 0; trial < 20; ++trial) {
    QonInstance inst = RandomQonWorkload(8, &rng, options);
    EXPECT_EQ(QonInvariantViolation(inst), "");
    for (int i = 0; i < 8; ++i) {
      EXPECT_GE(inst.size(i).ToLinear(), 100.0 * (1 - 1e-9));
      EXPECT_LE(inst.size(i).ToLinear(), 1000.0 * (1 + 1e-9));
    }
    for (const auto& [u, v] : inst.graph().Edges()) {
      double s = inst.selectivity(u, v).ToLinear();
      EXPECT_GE(s, 0.01 * (1 - 1e-9));
      EXPECT_LE(s, 0.5 * (1 + 1e-9));
    }
  }
}

TEST(Workloads, EveryShapeHoldsTheInstanceInvariants) {
  Rng rng(175);
  for (WorkloadShape shape :
       {WorkloadShape::kChain, WorkloadShape::kStar, WorkloadShape::kTree,
        WorkloadShape::kCycle, WorkloadShape::kClique,
        WorkloadShape::kRandom}) {
    WorkloadOptions options;
    options.shape = shape;
    for (int n : {3, 9, 40}) {
      EXPECT_EQ(QonInvariantViolation(RandomQonWorkload(n, &rng, options)), "")
          << "n=" << n;
      EXPECT_EQ(
          QohInvariantViolation(RandomQohWorkload(n, &rng, 0.3, options)), "")
          << "n=" << n;
    }
  }
}

TEST(Workloads, QohWorkloadFeasibleAtFullMemory) {
  Rng rng(173);
  QohInstance inst = RandomQohWorkload(8, &rng, /*memory_fraction=*/1.5);
  EXPECT_EQ(QohInvariantViolation(inst), "");
  JoinSequence seq = IdentitySequence(8);
  EXPECT_TRUE(OptimalDecomposition(inst, seq).feasible);
}

TEST(BranchAndBound, MatchesDpOnRandomInstances) {
  Rng rng(174);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 12));
    QonInstance inst = RandomQonWorkload(n, &rng);
    OptimizerResult bnb = BranchAndBoundQonOptimizer(inst);
    OptimizerResult dp = DpQonOptimizer(inst);
    ASSERT_TRUE(bnb.feasible);
    ASSERT_EQ(bnb.status, PlanStatus::kComplete);
    ASSERT_TRUE(dp.feasible);
    EXPECT_TRUE(bnb.cost.ApproxEquals(dp.cost, 1e-9))
        << "trial=" << trial << " n=" << n;
  }
}

TEST(BranchAndBound, MatchesDpWithCartesianRestriction) {
  Rng rng(175);
  OptimizerOptions options;
  options.forbid_cartesian = true;
  for (int trial = 0; trial < 20; ++trial) {
    WorkloadOptions wo;
    wo.edge_probability = 0.6;
    QonInstance inst = RandomQonWorkload(9, &rng, wo);
    OptimizerResult bnb = BranchAndBoundQonOptimizer(inst, options);
    OptimizerResult dp = DpQonOptimizer(inst, options);
    ASSERT_EQ(bnb.feasible, dp.feasible);
    if (dp.feasible) {
      EXPECT_TRUE(bnb.cost.ApproxEquals(dp.cost, 1e-9));
      EXPECT_FALSE(HasCartesianProduct(inst.graph(), bnb.sequence));
    }
  }
}

// Every search node is one evaluation, counted before the node is
// explored, so a cap of 51 stops on the 51st node: the plan, cost bits and
// evaluation count pinned here are what the retired node limit of 50
// returned on this instance (as status complete).
TEST(BranchAndBound, BudgetYieldsAnytimeResult) {
  Rng rng(176);
  QonInstance inst = RandomQonWorkload(14, &rng);
  OptimizerOptions capped;
  capped.budget.max_evaluations = 51;
  OptimizerResult limited = BranchAndBoundQonOptimizer(inst, capped);
  EXPECT_TRUE(limited.feasible);  // greedy incumbent at minimum
  EXPECT_EQ(limited.status, PlanStatus::kBudgetExhausted);
  EXPECT_EQ(limited.evaluations, 51u);
  EXPECT_EQ(limited.sequence,
            (JoinSequence{0, 3, 13, 11, 7, 1, 4, 10, 12, 2, 6, 9, 5, 8}));
  EXPECT_EQ(std::bit_cast<uint64_t>(limited.cost.Log2()),
            uint64_t{0x4060788159d9c003});
  OptimizerResult full = BranchAndBoundQonOptimizer(inst);
  EXPECT_EQ(full.status, PlanStatus::kComplete);
  EXPECT_LE(full.cost.Log2(), limited.cost.Log2() + 1e-9);
}

TEST(BranchAndBound, PrunesFarBelowFactorial) {
  Rng rng(177);
  QonInstance inst = RandomQonWorkload(12, &rng);
  OptimizerResult bnb = BranchAndBoundQonOptimizer(inst);
  EXPECT_TRUE(bnb.feasible);
  EXPECT_EQ(bnb.status, PlanStatus::kComplete);
  // 12! = 479M; dominance pruning caps nodes near the 2^12 subset count.
  EXPECT_LT(bnb.evaluations, uint64_t{200000});
}

TEST(BigIntMul, MatchesIdentitiesOnHugeNumbers) {
  // (2^k + 1)^2 = 2^{2k} + 2^{k+1} + 1 on operands of 16 to 79 limbs, far
  // above any table's: the schoolbook product at large sizes.
  for (int k : {1000, 3000, 5000}) {
    BigInt x = (BigInt(1) << k) + 1;
    BigInt expected = (BigInt(1) << (2 * k)) + (BigInt(1) << (k + 1)) + 1;
    EXPECT_EQ(x * x, expected) << "k=" << k;
  }
}

TEST(SortRegime, AppendixBInstancesQualify) {
  Rng rng(179);
  for (int trial = 0; trial < 10; ++trial) {
    SppcsInstance sppcs;
    int m = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < m; ++i) {
      sppcs.pairs.push_back(
          {BigInt(rng.UniformInt(2, 9)), BigInt(rng.UniformInt(1, 9))});
    }
    sppcs.l_bound = rng.UniformInt(1, 50);
    SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
    EXPECT_TRUE(red.instance.InTwoPassSortRegime());
  }
}

TEST(SortRegime, RejectsOutOfRangeSizes) {
  SqoCpInstance inst;
  inst.num_satellites = 1;
  inst.central_tuples = 100;
  inst.central_pages = 100;
  inst.tuples = {BigInt(10)};
  inst.pages = {BigInt(10)};  // 10 <= mem = 50: needs a 1-pass sort
  inst.match = {BigInt(2)};
  inst.w = {BigInt(1)};
  inst.w0 = {BigInt(1)};
  EXPECT_FALSE(inst.InTwoPassSortRegime());
}

}  // namespace
}  // namespace aqo
