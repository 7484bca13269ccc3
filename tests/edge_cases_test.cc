// Boundary and edge-case coverage across modules: the smallest legal
// instances, exact-boundary budgets, and numeric extremes.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/ikkbz.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "reductions/clique_to_qon.h"
#include "sqo/partition.h"
#include "sqo/star_query.h"
#include "util/bigint.h"
#include "util/bitset.h"
#include "util/log_double.h"
#include "util/random.h"

namespace aqo {
namespace {

// --- LogDouble extremes ---

TEST(LogDoubleEdge, ExtremeExponents) {
  LogDouble huge = LogDouble::FromLog2(1e15);
  LogDouble tiny = LogDouble::FromLog2(-1e15);
  EXPECT_DOUBLE_EQ((huge * tiny).Log2(), 0.0);
  EXPECT_DOUBLE_EQ((huge / tiny).Log2(), 2e15);
  EXPECT_DOUBLE_EQ((huge + tiny).Log2(), 1e15);  // tiny vanishes
  EXPECT_DOUBLE_EQ((huge - tiny).Log2(), 1e15);
  EXPECT_EQ(tiny.ToLinear(), 0.0);  // underflows linearly, stays exact in log
}

TEST(LogDoubleEdge, NearEqualSubtraction) {
  LogDouble a = LogDouble::FromLinear(1000.0);
  LogDouble b = LogDouble::FromLinear(999.999);
  EXPECT_NEAR((a - b).ToLinear(), 0.001, 1e-9);
  // Bit-identical operands cancel to zero exactly.
  EXPECT_TRUE((a - a).IsZero());
}

TEST(LogDoubleEdge, StreamFormatting) {
  std::ostringstream os;
  os << LogDouble::Zero() << " " << LogDouble::FromLinear(42.0) << " "
     << LogDouble::FromLog2(1234.5);
  EXPECT_EQ(os.str(), "0 42 2^1234.5");
}

TEST(LogDoubleEdge, MinMaxWithZero) {
  LogDouble z = LogDouble::Zero();
  LogDouble one = LogDouble::One();
  EXPECT_TRUE(MinOf(z, one).IsZero());
  EXPECT_EQ(MaxOf(z, one).Log2(), 0.0);
}

// --- BigInt extremes ---

TEST(BigIntEdge, PowersOfTwoStrings) {
  BigInt p = BigInt(1) << 128;
  EXPECT_EQ(p.ToString(), "340282366920938463463374607431768211456");
  EXPECT_EQ(p.BitLength(), 129);
  EXPECT_EQ((p - 1).BitLength(), 128);
}

TEST(BigIntEdge, OnesAndZeros) {
  EXPECT_EQ((BigInt(0) << 1000).ToString(), "0");
  EXPECT_EQ(BigInt(-1) * BigInt(-1), BigInt(1));
}

TEST(BigIntEdge, NegativeShiftSemantics) {
  EXPECT_EQ((BigInt(-40) >> 3).ToString(), "-5");  // magnitude shift
  EXPECT_EQ((BigInt(-5) << 3).ToString(), "-40");
}

// --- DynamicBitset boundaries ---

TEST(BitsetEdge, EmptyAndSingle) {
  DynamicBitset empty(0);
  EXPECT_EQ(empty.Count(), 0);
  EXPECT_EQ(empty.FindFirst(), -1);
  EXPECT_TRUE(empty.None());
  DynamicBitset one(1);
  one.Set(0);
  EXPECT_EQ(one.Count(), 1);
  EXPECT_EQ(one.FindNext(0), -1);
  EXPECT_EQ((~one).Count(), 0);
}

TEST(BitsetEdge, WordBoundary) {
  DynamicBitset b(64);
  b.Set(63);
  EXPECT_EQ(b.FindFirst(), 63);
  b.SetAll();
  EXPECT_EQ(b.Count(), 64);
  DynamicBitset c(65);
  c.SetAll();
  EXPECT_EQ(c.Count(), 65);
  EXPECT_EQ((~c).Count(), 0);
  c.Reset(64);
  EXPECT_EQ(c.FindNext(63), -1);
}

// --- Graph edge cases ---

TEST(GraphEdge, ComplementInvolutionRandomized) {
  Rng rng(221);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = Gnp(static_cast<int>(rng.UniformInt(0, 20)),
                  rng.UniformReal(0, 1), &rng);
    EXPECT_EQ(g.Complement().Complement(), g);
  }
}

TEST(GraphEdge, BackEdgeCountsMatchBrute) {
  Rng rng(223);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 12));
    Graph g = Gnp(n, 0.5, &rng);
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    std::vector<int> counts = BackEdgeCounts(g, seq);
    for (size_t i = 0; i < seq.size(); ++i) {
      int brute = 0;
      for (size_t j = 0; j < i; ++j) brute += g.HasEdge(seq[j], seq[i]);
      EXPECT_EQ(counts[i], brute);
    }
  }
}

// --- Minimal QO instances ---

TEST(QonEdge, TwoRelations) {
  Graph g = Chain(2);
  QonInstance inst(g, {LogDouble::FromLinear(8.0), LogDouble::FromLinear(4.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  // {0,1}: H_1 = 8 * (4 * 0.5) = 16; {1,0}: H_1 = 4 * (8 * 0.5) = 16.
  EXPECT_NEAR(QonSequenceCost(inst, {0, 1}).ToLinear(), 16.0, 1e-9);
  EXPECT_NEAR(QonSequenceCost(inst, {1, 0}).ToLinear(), 16.0, 1e-9);
  OptimizerResult dp = DpQonOptimizer(inst);
  EXPECT_NEAR(dp.cost.ToLinear(), 16.0, 1e-9);
  OptimizerResult kbz = IkkbzOptimizer(inst);
  EXPECT_NEAR(kbz.cost.ToLinear(), 16.0, 1e-9);
}

TEST(QohEdge, MemoryExactlyAtFloors) {
  Graph g = Graph::Complete(3);
  std::vector<LogDouble> sizes(3, LogDouble::FromLinear(256.0));
  // Floors: hjmin(256) = 16 each; two joins need exactly 32.
  QohInstance inst(g, sizes, 32.0);
  PipelineCostResult r = OptimalPipelineCost(inst, {0, 1, 2}, 1, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.allocation[0], 16.0);
  EXPECT_DOUBLE_EQ(r.allocation[1], 16.0);
  QohInstance below(g, sizes, 31.0);
  EXPECT_FALSE(OptimalPipelineCost(below, {0, 1, 2}, 1, 2).feasible);
}

TEST(QohEdge, TinyInnerRelationNeedsNoExtraMemory) {
  Graph g = Chain(2);
  // Inner of 2 pages: hjmin(2) = 2 = the relation itself -> g = 0 at the
  // floor: build cost only.
  std::vector<LogDouble> sizes = {LogDouble::FromLinear(1000.0),
                                  LogDouble::FromLinear(2.0)};
  QohInstance inst(g, sizes, 2.0);
  PipelineCostResult r = OptimalPipelineCost(inst, {0, 1}, 1, 1);
  ASSERT_TRUE(r.feasible);
  // cost = read 1000 + build 2 + write 1000*2*1 (selectivity 1: non-edge
  // has none... chain edge default selectivity 1).
  EXPECT_NEAR(r.cost.ToLinear(), 1000.0 + 2.0 + 2000.0, 1e-6);
}

TEST(QohEdge, DecompositionOfTwoRelationsIsSingleton) {
  Rng rng(224);
  Graph g = Chain(2);
  std::vector<LogDouble> sizes(2, LogDouble::FromLinear(64.0));
  QohInstance inst(g, sizes, 100.0);
  QohPlan plan = OptimalDecomposition(inst, {0, 1});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.decomposition.NumFragments(), 1);
}

// --- Reductions at the smallest sizes ---

TEST(ReductionEdge, TwoVertexClique) {
  Graph g = Chain(2);
  QonGapParams params{.c = 1.0, .d = 0.5, .log2_alpha = 2.0};
  QonGapInstance gap = ReduceCliqueToQon(g, params);
  JoinSequence witness = CliqueFirstWitness(g, {0, 1});
  EXPECT_GT(QonSequenceCost(gap.instance, witness).Log2(), 0.0);
  EXPECT_GT(gap.KBound().Log2(), 0.0);
}

TEST(ReductionEdge, SingletonCliqueWitness) {
  Rng rng(225);
  Graph g = Gnp(6, 0.8, &rng);
  if (!g.IsConnected()) return;
  JoinSequence seq = CliqueFirstWitness(g, {3});
  EXPECT_TRUE(IsPermutation(seq, 6));
  EXPECT_EQ(seq[0], 3);
  EXPECT_FALSE(HasCartesianProduct(g, seq));
}

// --- SQO-CP minimal ---

TEST(SqoCpEdge, SingleSatellite) {
  SqoCpInstance inst;
  inst.num_satellites = 1;
  inst.ks = 4;
  inst.central_tuples = 10;
  inst.central_pages = 10;
  inst.tuples = {BigInt(20)};
  inst.pages = {BigInt(20)};
  inst.match = {BigInt(2)};
  inst.w = {BigInt(3)};
  inst.w0 = {BigInt(7)};
  inst.budget = 1000;
  SqoCpResult exact = SolveSqoCpExact(inst);
  SqoCpResult brute = SolveSqoCpBrute(inst);
  EXPECT_EQ(exact.best_cost, brute.best_cost);
  // By hand: R0 first NL: 10 + 3*10 = 40; R0 first SM: 40+80 = 120;
  // R1 first NL: 20 + 7*20 = 160; R1 first SM: 120. Optimum 40.
  EXPECT_EQ(exact.best_cost, BigInt(40));
  EXPECT_TRUE(exact.within_budget);
}

// --- PARTITION degenerate cases ---

TEST(PartitionEdge, AllZeros) {
  PartitionInstance inst{{0, 0, 0}};
  EXPECT_TRUE(SolvePartitionDp(inst).has_value());  // empty split works
  EXPECT_TRUE(SolvePartitionBrute(inst).has_value());
}

TEST(PartitionEdge, TwoEqualValues) {
  PartitionInstance inst{{7, 7}};
  auto subset = SolvePartitionDp(inst);
  ASSERT_TRUE(subset.has_value());
  EXPECT_EQ(subset->size(), 1u);
}

TEST(PartitionEdge, SingleDominatingValue) {
  PartitionInstance inst{{10, 1, 1, 2}};  // total 14, half 7: impossible
  EXPECT_FALSE(SolvePartitionDp(inst).has_value());
  EXPECT_FALSE(SolvePartitionBrute(inst).has_value());
}

}  // namespace
}  // namespace aqo
