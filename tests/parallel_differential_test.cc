// Differential harness proving the parallel subset DP is interchangeable
// with the trusted serial DP, and that the serial DP agrees with the
// exhaustive oracle:
//
//   * every connected query graph on n <= 5 vertices (exhaustively
//     enumerated over edge subsets), serial DP vs the n! oracle and vs
//     the parallel DP on several pool sizes;
//   * every graph on 6 vertices (connected or not), parallel vs serial;
//   * random G(n, p) instances up to n = 10, parallel vs serial, with
//     and without the cartesian-product restriction;
//   * tie-break regressions: on fully symmetric instances (every
//     permutation costs the same) each optimizer must return one specific
//     sequence, a pure function of the instance.
//
// "Bit-identical" here is literal: cost compared through exact double
// equality on Log2(), plus sequence and evaluation-count equality. The
// oracle comparison allows 1e-9 relative slack because the DP and
// QonSequenceCost sum the same terms through different expression trees.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "qo/bnb.h"
#include "qo/genetic.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

// Builds the graph whose edge set is the bits of `code` over the
// lexicographic (u < v) edge list of K_n.
Graph GraphFromCode(int n, uint64_t code) {
  Graph g(n);
  int bit = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v, ++bit) {
      if (code & (uint64_t{1} << bit)) g.AddEdge(u, v);
    }
  }
  return g;
}

// A deterministic instance for `g`: sizes and selectivities drawn from an
// Rng stream keyed by (n, code) so every test run sees the same numbers.
QonInstance InstanceFor(const Graph& g, uint64_t key) {
  Rng rng(MixSeed(0xD1FFu, key));
  int n = g.NumVertices();
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLinear(static_cast<double>(rng.UniformInt(10, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng.UniformReal(0.001, 0.8)));
  }
  return inst;
}

// Exact structural equality: cost bits, sequence, feasibility, and the
// evaluation count all match.
void ExpectBitIdentical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.evaluations, b.evaluations);
  if (!a.feasible) return;
  EXPECT_EQ(a.cost.Log2(), b.cost.Log2());  // exact double equality
  EXPECT_EQ(a.sequence, b.sequence);
}

int EdgeBits(int n) { return n * (n - 1) / 2; }

TEST(ParallelDifferential, AllConnectedGraphsUpTo5MatchOracleAndParallel) {
  ThreadPool pool2(2), pool3(3), pool8(8);
  for (int n = 2; n <= 5; ++n) {
    uint64_t codes = uint64_t{1} << EdgeBits(n);
    int checked = 0;
    for (uint64_t code = 0; code < codes; ++code) {
      Graph g = GraphFromCode(n, code);
      if (!g.IsConnected()) continue;
      QonInstance inst = InstanceFor(g, (static_cast<uint64_t>(n) << 32) | code);
      OptimizerResult serial = DpQonOptimizerSerial(inst);
      ASSERT_TRUE(serial.feasible);

      // Serial DP vs the n! oracle: same optimum (1e-9 relative slack for
      // the differing summation trees), and the DP sequence really costs
      // what the DP claims.
      OptimizerResult oracle = ExhaustiveQonOptimizer(inst);
      ASSERT_TRUE(oracle.feasible);
      double scale = std::max(1.0, std::abs(oracle.cost.Log2()));
      EXPECT_NEAR(serial.cost.Log2(), oracle.cost.Log2(), 1e-9 * scale)
          << "n=" << n << " code=" << code;
      EXPECT_TRUE(
          QonSequenceCost(inst, serial.sequence).ApproxEquals(serial.cost, 1e-9));

      // Parallel DP is bit-identical for every pool size.
      for (ThreadPool* pool : {&pool2, &pool3, &pool8}) {
        OptimizerResult parallel = DpQonOptimizerParallel(inst, pool);
        ExpectBitIdentical(serial, parallel);
      }
      ++checked;
    }
    EXPECT_GT(checked, 0) << "n=" << n;
  }
}

TEST(ParallelDifferential, AllGraphsOn6VerticesParallelEqualsSerial) {
  // Includes disconnected graphs: reachability bookkeeping and the
  // cartesian-free pruning must agree too, not just the happy path.
  ThreadPool pool(3);
  uint64_t codes = uint64_t{1} << EdgeBits(6);
  for (uint64_t code = 0; code < codes; ++code) {
    Graph g = GraphFromCode(6, code);
    QonInstance inst = InstanceFor(g, (uint64_t{6} << 32) | code);
    for (bool forbid : {false, true}) {
      OptimizerOptions options;
      options.forbid_cartesian = forbid;
      OptimizerResult serial = DpQonOptimizerSerial(inst, options);
      OptimizerResult parallel = DpQonOptimizerParallel(inst, &pool, options);
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(ParallelDifferential, RandomGraphsUpTo10ParallelEqualsSerial) {
  ThreadPool pool2(2), pool5(5), pool8(8);
  Rng rng(20260807);
  for (int trial = 0; trial < 120; ++trial) {
    int n = static_cast<int>(rng.UniformInt(7, 10));
    double p = rng.UniformReal(0.2, 0.95);
    Graph g = Gnp(n, p, &rng);
    QonInstance inst = InstanceFor(g, static_cast<uint64_t>(trial) + 1000);
    for (bool forbid : {false, true}) {
      OptimizerOptions options;
      options.forbid_cartesian = forbid;
      OptimizerResult serial = DpQonOptimizerSerial(inst, options);
      for (ThreadPool* pool : {&pool2, &pool5, &pool8}) {
        OptimizerResult parallel = DpQonOptimizerParallel(inst, pool, options);
        ExpectBitIdentical(serial, parallel);
      }
      // The public entry point dispatches by options.pool and must agree
      // with both.
      OptimizerOptions pooled = options;
      pooled.pool = &pool8;
      ExpectBitIdentical(serial, DpQonOptimizer(inst, pooled));
    }
  }
}

TEST(ParallelDifferential, RandomGraphsUpTo7MatchOracle) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 7));
    Graph g = ConnectedWithEdgeBudget(
        n, static_cast<int>(rng.UniformInt(n - 1, EdgeBits(n))), &rng);
    QonInstance inst = InstanceFor(g, static_cast<uint64_t>(trial) + 5000);
    OptimizerResult serial = DpQonOptimizerSerial(inst);
    OptimizerResult oracle = ExhaustiveQonOptimizer(inst);
    ASSERT_TRUE(serial.feasible);
    ASSERT_TRUE(oracle.feasible);
    double scale = std::max(1.0, std::abs(oracle.cost.Log2()));
    EXPECT_NEAR(serial.cost.Log2(), oracle.cost.Log2(), 1e-9 * scale);
  }
}

// --- Tie-break regressions ---
//
// On a fully symmetric instance (complete graph, equal sizes, equal
// selectivities) every permutation costs exactly the same, so the returned
// sequence is decided *only* by tie-breaking. These lock in the
// lowest-relation-id rules; before the explicit tie-breaks the unstable
// std::sort calls in bnb/genetic left the choice unspecified.

QonInstance SymmetricInstance(int n) {
  Graph g = Graph::Complete(n);
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(64.0));
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
  }
  return inst;
}

TEST(TieBreakRegression, GreedyPicksLowestRelationIdOnTies) {
  QonInstance inst = SymmetricInstance(6);
  OptimizerResult r = GreedyQonOptimizer(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.sequence, IdentitySequence(6));
}

TEST(TieBreakRegression, SerialAndParallelDpAgreeOnFullySymmetricTies) {
  QonInstance inst = SymmetricInstance(7);
  ThreadPool pool(4);
  OptimizerResult serial = DpQonOptimizerSerial(inst);
  OptimizerResult parallel = DpQonOptimizerParallel(inst, &pool);
  ASSERT_TRUE(serial.feasible);
  ExpectBitIdentical(serial, parallel);
  // The DP reconstructs by peeling the recorded last relation; with the
  // lowest-id rule the peel order is 0,1,2,... so the sequence is the
  // identity reversed. What matters is that it is *this* sequence, every
  // run, for every thread count.
  JoinSequence expected = IdentitySequence(7);
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(serial.sequence, expected);
}

TEST(TieBreakRegression, BnbExploresLowestRelationFirstOnTies) {
  QonInstance inst = SymmetricInstance(6);
  OptimizerResult r = BranchAndBoundQonOptimizer(inst);
  ASSERT_TRUE(r.feasible);
  // Ties explored lowest-id first, strict improvement only: the incumbent
  // stays the identity permutation.
  EXPECT_EQ(r.sequence, IdentitySequence(6));
}

TEST(TieBreakRegression, GeneticElitesStableUnderAllEqualCosts) {
  QonInstance inst = SymmetricInstance(6);
  OptimizerOptions options;
  options.ga.population = 16;
  options.ga.generations = 12;
  auto run = [&] {
    Rng rng(99);
    return GeneticOptimizer(inst, &rng, options);
  };
  OptimizerResult a = run();
  OptimizerResult b = run();
  ASSERT_TRUE(a.feasible);
  ExpectBitIdentical(a, b);
}

}  // namespace
}  // namespace aqo
