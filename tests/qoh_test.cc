// Tests for the QO_H pipelined hash-join model (paper §2.2): the h/g cost
// functions, optimal memory allocation (Lemma 10's structure), and the
// pipeline-decomposition DP.

#include "qo/qoh.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

QohInstance SmallInstance(int n, double memory, Rng* rng, double sel = 0.5,
                          double size = 64.0) {
  Graph g = Gnp(n, 0.6, rng);
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(size));
  QohInstance inst(g, std::move(sizes), memory);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(sel));
  }
  return inst;
}

// Enumerates all 2^(j-1) pipeline decompositions of a sequence and returns
// the best feasible cost (reference for the DP).
bool BestDecompositionBrute(const QohInstance& inst, const JoinSequence& seq,
                            LogDouble* best) {
  int joins = static_cast<int>(seq.size()) - 1;
  bool any = false;
  for (uint32_t mask = 0; mask < (1u << (joins - 1)); ++mask) {
    PipelineDecomposition d;
    d.starts = {1};
    for (int j = 2; j <= joins; ++j) {
      if (mask & (1u << (j - 2))) d.starts.push_back(j);
    }
    PipelineCostResult r = DecompositionCost(inst, seq, d);
    if (r.feasible && (!any || r.cost < *best)) {
      any = true;
      *best = r.cost;
    }
  }
  return any;
}

TEST(QohInstance, HjMin) {
  Rng rng(51);
  QohInstance inst = SmallInstance(4, 1000.0, &rng);
  EXPECT_DOUBLE_EQ(inst.HashJoinMinMemory(LogDouble::FromLinear(64.0)).ToLinear(),
                   8.0);
  EXPECT_DOUBLE_EQ(inst.HashJoinMinMemory(LogDouble::FromLinear(100.0)).ToLinear(),
                   10.0);
  // Non-square sizes round up.
  EXPECT_DOUBLE_EQ(inst.HashJoinMinMemory(LogDouble::FromLinear(10.0)).ToLinear(),
                   4.0);
}

// Random sequences of the one mutator hold every invariant, on instances
// built across the memory range (memory is fixed at construction).
TEST(QohInstance, RandomMutatorSequencesKeepTheInvariants) {
  Rng rng(57);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 9));
    double memory = trial % 10 == 0 ? 1.0 : rng.UniformReal(1.0, 1e12);
    QohInstance inst = SmallInstance(n, memory, &rng);
    std::vector<std::pair<int, int>> edges = inst.graph().Edges();
    for (int step = 0; step < 100 && !edges.empty(); ++step) {
      double draw = rng.UniformReal();
      auto [i, j] = edges[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(edges.size()) - 1))];
      inst.SetSelectivity(
          i, j,
          draw < 0.1   ? LogDouble::One()
          : draw < 0.2 ? LogDouble::FromLog2(-1000.0)
                       : LogDouble::FromLinear(rng.UniformReal(1e-6, 1.0)));
      ASSERT_EQ(QohInvariantViolation(inst), "")
          << "trial " << trial << ", step " << step;
    }
    ASSERT_EQ(QohInvariantViolation(inst), "") << "trial " << trial;
  }
}

TEST(QohCost, FullMemoryPipelineCostsReadBuildWrite) {
  // With memory >= sum of inner sizes, g = 0 for every join: the pipeline
  // costs input + sum(inner builds) + output.
  Rng rng(52);
  int n = 5;
  QohInstance inst = SmallInstance(n, 1e9, &rng);
  JoinSequence seq = IdentitySequence(n);
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  PipelineCostResult r = OptimalPipelineCost(inst, seq, 1, n - 1);
  ASSERT_TRUE(r.feasible);
  LogDouble expected = prefix[1] + prefix[static_cast<size_t>(n)];
  for (int j = 1; j <= n - 1; ++j) {
    expected += inst.size(seq[static_cast<size_t>(j)]);
  }
  EXPECT_TRUE(r.cost.ApproxEquals(expected, 1e-9))
      << r.cost.Log2() << " vs " << expected.Log2();
  // Every join got its full inner size.
  for (size_t j = 0; j < r.allocation.size(); ++j) {
    EXPECT_DOUBLE_EQ(r.allocation[j], 64.0);
  }
}

TEST(QohCost, MinimumMemoryJoinPaysOuterAgain) {
  // One join, memory exactly hjmin(inner): cost = outer + (outer+inner)*1 +
  // inner + output.
  Graph g = Chain(2);
  std::vector<LogDouble> sizes = {LogDouble::FromLinear(32.0),
                                  LogDouble::FromLinear(64.0)};
  QohInstance inst(g, sizes, /*memory=*/8.0);
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  JoinSequence seq = {0, 1};
  PipelineCostResult r = OptimalPipelineCost(inst, seq, 1, 1);
  ASSERT_TRUE(r.feasible);
  // N_0 = 32, inner = 64, g = 1, output = 32*64*0.5 = 1024.
  double expected = 32 + (32 + 64) * 1.0 + 64 + 1024;
  EXPECT_NEAR(r.cost.ToLinear(), expected, 1e-6);
  EXPECT_DOUBLE_EQ(r.allocation[0], 8.0);
}

TEST(QohCost, InfeasibleWhenFloorsExceedMemory) {
  Graph g = Chain(3);
  std::vector<LogDouble> sizes(3, LogDouble::FromLinear(10000.0));
  QohInstance inst(g, sizes, /*memory=*/150.0);  // hjmin = 100 each
  JoinSequence seq = {0, 1, 2};
  EXPECT_TRUE(OptimalPipelineCost(inst, seq, 1, 1).feasible);
  EXPECT_FALSE(OptimalPipelineCost(inst, seq, 1, 2).feasible);
}

TEST(QohCost, InfeasibleWhenHashTableCannotBeBuilt) {
  Graph g = Chain(2);
  std::vector<LogDouble> sizes = {LogDouble::FromLinear(8.0),
                                  LogDouble::FromLog2(200.0)};  // 2^200 pages
  QohInstance inst(g, sizes, 1000.0);
  EXPECT_FALSE(OptimalPipelineCost(inst, {0, 1}, 1, 1).feasible);
  // The other direction streams the huge relation: feasible.
  EXPECT_TRUE(OptimalPipelineCost(inst, {1, 0}, 1, 1).feasible);
}

TEST(QohCost, AllocatorStarvesTheCheapestOuter) {
  // Lemma 10's structure: when memory forces one join to the floor, the
  // optimal allocation starves the join with the smallest outer stream.
  Graph g = Graph::Complete(4);
  std::vector<LogDouble> sizes(4, LogDouble::FromLinear(64.0));
  // Selectivities make the intermediates grow: outers increase along the
  // pipeline, so the FIRST join has the smallest outer.
  double memory = 3 * 64.0 - 1.0;  // one page short of all-full... forces
                                   // partial starvation
  QohInstance inst(g, sizes, memory);
  JoinSequence seq = {0, 1, 2, 3};
  PipelineCostResult r = OptimalPipelineCost(inst, seq, 1, 3);
  ASSERT_TRUE(r.feasible);
  // Joins 2 and 3 (larger outers) keep full memory; join 1 gives up a page.
  EXPECT_DOUBLE_EQ(r.allocation[1], 64.0);
  EXPECT_DOUBLE_EQ(r.allocation[2], 64.0);
  EXPECT_DOUBLE_EQ(r.allocation[0], 63.0);
}

TEST(QohCost, AllocationIsOptimalVsRandomAllocations) {
  // Property test: no random feasible allocation beats the greedy one.
  Rng rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 4;
    double memory = rng.UniformReal(40.0, 200.0);
    QohInstance inst = SmallInstance(n, memory, &rng, 0.7);
    JoinSequence seq = IdentitySequence(n);
    PipelineCostResult opt = OptimalPipelineCost(inst, seq, 1, n - 1);
    if (!opt.feasible) continue;
    std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
    for (int attempt = 0; attempt < 50; ++attempt) {
      // Random allocation: floors plus random split of the leftover.
      double floor_sum = 0.0;
      std::vector<double> alloc(static_cast<size_t>(n - 1));
      for (int j = 1; j <= n - 1; ++j) {
        alloc[static_cast<size_t>(j - 1)] =
            inst.HashJoinMinMemory(inst.size(seq[static_cast<size_t>(j)]))
                .ToLinear();
        floor_sum += alloc[static_cast<size_t>(j - 1)];
      }
      double leftover = memory - floor_sum;
      for (int j = 0; j < n - 1 && leftover > 0; ++j) {
        double grant = rng.UniformReal(0.0, leftover);
        double cap = 64.0 - alloc[static_cast<size_t>(j)];
        grant = std::min(grant, cap);
        alloc[static_cast<size_t>(j)] += grant;
        leftover -= grant;
      }
      // Cost this allocation by hand.
      LogDouble cost = prefix[1] + prefix[static_cast<size_t>(n)];
      for (int j = 1; j <= n - 1; ++j) {
        double inner = 64.0;
        double hjmin = 8.0;
        double m = alloc[static_cast<size_t>(j - 1)];
        double gfac = m >= inner ? 0.0 : (inner - m) / (inner - hjmin);
        cost += (prefix[static_cast<size_t>(j)] + LogDouble::FromLinear(inner)) *
                    LogDouble::FromLinear(gfac) +
                LogDouble::FromLinear(inner);
      }
      EXPECT_GE(cost.Log2(), opt.cost.Log2() - 1e-9)
          << "random allocation beat the greedy optimum";
    }
  }
}

TEST(QohCost, DecompositionDpMatchesBruteForce) {
  Rng rng(54);
  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 7));
    double memory = rng.UniformReal(20.0, 300.0);
    QohInstance inst = SmallInstance(n, memory, &rng,
                                     rng.UniformReal(0.1, 1.0));
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    QohPlan plan = OptimalDecomposition(inst, seq);
    LogDouble brute;
    bool brute_feasible = BestDecompositionBrute(inst, seq, &brute);
    ASSERT_EQ(plan.feasible, brute_feasible);
    if (plan.feasible) {
      EXPECT_TRUE(plan.cost.ApproxEquals(brute, 1e-9))
          << plan.cost.Log2() << " vs " << brute.Log2();
      // The reported decomposition reproduces the reported cost.
      PipelineCostResult check =
          DecompositionCost(inst, seq, plan.decomposition);
      ASSERT_TRUE(check.feasible);
      EXPECT_TRUE(check.cost.ApproxEquals(plan.cost, 1e-9));
    }
  }
}

TEST(QohCost, MaterializationBreaksHelpWhenMemoryTight) {
  // A long pipeline under tight memory re-reads big streams; breaking it
  // must never be worse than the single-pipeline plan.
  Rng rng(55);
  QohInstance inst = SmallInstance(6, 100.0, &rng, 0.9, 64.0);
  JoinSequence seq = IdentitySequence(6);
  QohPlan plan = OptimalDecomposition(inst, seq);
  PipelineCostResult single = OptimalPipelineCost(inst, seq, 1, 5);
  if (plan.feasible && single.feasible) {
    EXPECT_LE(plan.cost.Log2(), single.cost.Log2() + 1e-9);
  }
}

}  // namespace
}  // namespace aqo
