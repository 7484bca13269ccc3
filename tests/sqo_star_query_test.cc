// Tests for the SQO-CP star-query cost model and the Appendix B reduction
// SPPCS -> SQO-CP, verified empirically against brute-force solvers on both
// ends (the full proof lives in the unavailable TR [7]; these tests are the
// artifact's evidence that the construction is a many-one reduction).

#include <gtest/gtest.h>

#include "sqo/partition.h"
#include "sqo/sppcs.h"
#include "sqo/star_query.h"
#include "util/random.h"

namespace aqo {
namespace {

// A small hand-checkable instance.
SqoCpInstance TinyInstance() {
  SqoCpInstance inst;
  inst.num_satellites = 2;
  inst.ks = 4;
  inst.central_tuples = 10;
  inst.central_pages = 10;
  inst.tuples = {BigInt(30), BigInt(60)};
  inst.pages = {BigInt(30), BigInt(60)};
  inst.match = {BigInt(3), BigInt(2)};  // n_i * s_i
  inst.w = {BigInt(5), BigInt(7)};
  inst.w0 = {BigInt(10), BigInt(10)};
  inst.budget = 1000;
  return inst;
}

TEST(SqoCpCost, HandComputedPlan) {
  SqoCpInstance inst = TinyInstance();
  // R_0, R_1 (NL), R_2 (SM):
  //   first join:  b_0 + w_1 * n_0 = 10 + 5*10            = 60
  //   intermediate n = 10 * 3 = 30
  //   second join: b(W)(ks-1) + A_2 = 30*3 + 60*4         = 330
  SqoCpPlan plan;
  plan.sequence = {0, 1, 2};
  plan.methods = {JoinMethod::kNestedLoops, JoinMethod::kSortMerge};
  EXPECT_EQ(SqoCpPlanCost(inst, plan), BigInt(390));

  // R_1 first, sort-merge with R_0, then R_2 by NL:
  //   first join: A_1 + A_0 = 30*4 + 10*4                 = 160
  //   intermediate n = 10 * 3 = 30
  //   second join: n(W) * w_2 = 30*7                      = 210
  SqoCpPlan plan2;
  plan2.sequence = {1, 0, 2};
  plan2.methods = {JoinMethod::kSortMerge, JoinMethod::kNestedLoops};
  EXPECT_EQ(SqoCpPlanCost(inst, plan2), BigInt(370));
}

TEST(SqoCpSolvers, ExactMatchesBruteForce) {
  Rng rng(131);
  for (int trial = 0; trial < 60; ++trial) {
    SqoCpInstance inst;
    inst.num_satellites = static_cast<int>(rng.UniformInt(1, 5));
    inst.ks = rng.UniformInt(2, 6);
    inst.central_tuples = rng.UniformInt(1, 50);
    inst.central_pages = rng.UniformInt(1, 50);
    for (int i = 0; i < inst.num_satellites; ++i) {
      inst.tuples.push_back(rng.UniformInt(1, 100));
      inst.pages.push_back(rng.UniformInt(1, 100));
      inst.match.push_back(rng.UniformInt(1, 8));
      inst.w.push_back(rng.UniformInt(1, 40));
      inst.w0.push_back(rng.UniformInt(1, 40));
    }
    inst.budget = rng.UniformInt(1, 100000);
    SqoCpResult exact = SolveSqoCpExact(inst);
    SqoCpResult brute = SolveSqoCpBrute(inst);
    EXPECT_EQ(exact.best_cost, brute.best_cost) << "trial=" << trial;
    EXPECT_EQ(exact.within_budget, brute.within_budget);
    EXPECT_EQ(SqoCpPlanCost(inst, exact.best_plan), exact.best_cost);
  }
}

TEST(SppcsToSqoCp, ConstructionConstants) {
  SppcsInstance sppcs;
  sppcs.pairs = {{BigInt(2), BigInt(3)}, {BigInt(3), BigInt(1)}};
  sppcs.l_bound = 7;
  SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
  // J = (16 * 6)^2 = 9216; U = 4 + 6 + 1 = 11.
  EXPECT_EQ(red.j_term, BigInt(9216));
  EXPECT_EQ(red.u_term, BigInt(11));
  const SqoCpInstance& inst = red.instance;
  EXPECT_EQ(inst.num_satellites, 3);
  const BigInt& j = red.j_term;
  EXPECT_EQ(inst.central_tuples, BigInt(5) * j * j * j * 11);
  EXPECT_EQ(inst.match[0], BigInt(2));
  EXPECT_EQ(inst.match[2], red.j_term);
  EXPECT_EQ(inst.budget,
            inst.central_tuples * j * j * 4 * 8 - 1);
}

TEST(SppcsToSqoCp, WitnessPlanTracksSppcsValue) {
  // The canonical plan's cost is n_0 J^2 ks (V(A) + lower-order): it must
  // be within budget exactly when V(A) <= L.
  Rng rng(132);
  for (int trial = 0; trial < 40; ++trial) {
    int m = static_cast<int>(rng.UniformInt(1, 5));
    SppcsInstance sppcs;
    BigInt min_value;
    for (int i = 0; i < m; ++i) {
      sppcs.pairs.push_back(
          {BigInt(rng.UniformInt(2, 6)), BigInt(rng.UniformInt(1, 20))});
    }
    SppcsSolution opt = SolveSppcsBrute(sppcs);
    // Set L right at / just below the optimum to probe both sides.
    sppcs.l_bound = opt.best_value - (trial % 2 == 0 ? 0 : 1);
    SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
    SqoCpPlan witness = SqoCpWitnessPlan(red, opt.subset);
    BigInt cost = SqoCpPlanCost(red.instance, witness);
    if (trial % 2 == 0) {
      EXPECT_LE(cost, red.instance.budget) << "witness missed the budget";
    }
  }
}

TEST(SppcsToSqoCp, ManyOnePropertyExhaustive) {
  // The Appendix B claim, verified: SPPCS yes <=> an SQO-CP plan within M
  // exists, with both sides decided exactly.
  Rng rng(133);
  for (int trial = 0; trial < 60; ++trial) {
    int m = static_cast<int>(rng.UniformInt(1, 4));
    SppcsInstance sppcs;
    for (int i = 0; i < m; ++i) {
      sppcs.pairs.push_back(
          {BigInt(rng.UniformInt(2, 7)), BigInt(rng.UniformInt(1, 25))});
    }
    // Probe L around the true optimum (the interesting boundary) and at
    // random values.
    SppcsSolution opt = SolveSppcsBrute(sppcs);
    std::vector<BigInt> l_values = {opt.best_value, opt.best_value - 1,
                                    opt.best_value + 1,
                                    BigInt(rng.UniformInt(1, 200))};
    for (const BigInt& l : l_values) {
      if (l.Sign() <= 0) continue;
      sppcs.l_bound = l;
      SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
      bool sppcs_yes = opt.best_value <= l;
      SqoCpResult sqo = SolveSqoCpExact(red.instance);
      EXPECT_EQ(sppcs_yes, sqo.within_budget)
          << "trial=" << trial << " m=" << m << " L=" << l.ToString()
          << " V*=" << opt.best_value.ToString()
          << " cost=" << sqo.best_cost.ToString()
          << " M=" << red.instance.budget.ToString();
    }
  }
}

TEST(FullChain, PartitionToSqoCp) {
  // PARTITION -> SPPCS -> SQO-CP end to end: the star-query optimizer
  // decides PARTITION.
  Rng rng(134);
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 4));
    PartitionInstance inst =
        RandomPartitionInstance(n, 6, rng.Bernoulli(0.5), &rng);
    if (inst.Total() < 4) continue;
    // Drop zero values (the Appendix B WLOG needs p >= 2, c >= 1).
    PartitionInstance cleaned;
    for (int64_t v : inst.values) {
      if (v > 0) cleaned.values.push_back(v);
    }
    if (cleaned.values.size() < 1 || cleaned.Total() < 4) continue;
    ++checked;
    bool partition_yes = SolvePartitionBrute(cleaned).has_value();
    SppcsInstance sppcs = ReducePartitionToSppcs(cleaned);
    SppcsToSqoCpResult red = ReduceSppcsToSqoCp(sppcs);
    SqoCpResult sqo = SolveSqoCpExact(red.instance);
    EXPECT_EQ(partition_yes, sqo.within_budget) << "trial=" << trial;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace aqo
