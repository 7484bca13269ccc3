// Differential harness for the exact QO_N optimizers and the tie-break
// rules every optimizer follows:
//
//   * every graph on n <= 5 vertices, connected or not (exhaustively
//     enumerated over edge subsets), with and without the
//     cartesian-product restriction: the subset DP against the n!
//     oracle run with the same option, so the DP's reachability
//     bookkeeping and cartesian-free pruning have a reference;
//   * random connected graphs up to n = 7, DP vs oracle;
//   * tie-break regressions: on fully symmetric instances (every
//     permutation costs the same) each optimizer must return one specific
//     sequence, a pure function of the instance.
//
// The oracle comparison allows 1e-9 relative slack because the DP and
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

TEST(DpDifferential, AllGraphsUpTo5MatchOracle) {
  for (int n = 2; n <= 5; ++n) {
    uint64_t codes = uint64_t{1} << EdgeBits(n);
    int feasible = 0, infeasible = 0;
    for (uint64_t code = 0; code < codes; ++code) {
      Graph g = GraphFromCode(n, code);
      QonInstance inst = InstanceFor(g, (static_cast<uint64_t>(n) << 32) | code);
      for (bool forbid : {false, true}) {
        OptimizerOptions options;
        options.forbid_cartesian = forbid;
        OptimizerResult dp = DpQonOptimizer(inst, options);
        OptimizerResult oracle = ExhaustiveQonOptimizer(inst, options);
        // Without the restriction every graph is feasible; with it,
        // exactly the connected ones.
        ASSERT_EQ(dp.feasible, oracle.feasible)
            << "n=" << n << " code=" << code << " forbid=" << forbid;
        ASSERT_EQ(dp.feasible, !forbid || g.IsConnected())
            << "n=" << n << " code=" << code << " forbid=" << forbid;
        if (!dp.feasible) {
          ++infeasible;
          continue;
        }
        ++feasible;
        // Same optimum (1e-9 relative slack for the differing summation
        // trees), and the DP sequence really costs what the DP claims.
        double scale = std::max(1.0, std::abs(oracle.cost.Log2()));
        EXPECT_NEAR(dp.cost.Log2(), oracle.cost.Log2(), 1e-9 * scale)
            << "n=" << n << " code=" << code << " forbid=" << forbid;
        EXPECT_TRUE(
            QonSequenceCost(inst, dp.sequence).ApproxEquals(dp.cost, 1e-9));
        if (forbid) {
          EXPECT_FALSE(HasCartesianProduct(g, dp.sequence));
        }
      }
    }
    EXPECT_GT(feasible, 0) << "n=" << n;
    EXPECT_GT(infeasible, 0) << "n=" << n;
  }
}

TEST(DpDifferential, RandomGraphsUpTo7MatchOracle) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 7));
    Graph g = ConnectedWithEdgeBudget(
        n, static_cast<int>(rng.UniformInt(n - 1, EdgeBits(n))), &rng);
    QonInstance inst = InstanceFor(g, static_cast<uint64_t>(trial) + 5000);
    OptimizerResult dp = DpQonOptimizer(inst);
    OptimizerResult oracle = ExhaustiveQonOptimizer(inst);
    ASSERT_TRUE(dp.feasible);
    ASSERT_TRUE(oracle.feasible);
    double scale = std::max(1.0, std::abs(oracle.cost.Log2()));
    EXPECT_NEAR(dp.cost.Log2(), oracle.cost.Log2(), 1e-9 * scale);
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

TEST(TieBreakRegression, DpPeelsLowestRelationIdsOnFullySymmetricTies) {
  QonInstance inst = SymmetricInstance(7);
  OptimizerResult r = DpQonOptimizer(inst);
  ASSERT_TRUE(r.feasible);
  // The DP reconstructs by peeling the recorded last relation; with the
  // lowest-id rule the peel order is 0,1,2,... so the sequence is the
  // identity reversed. What matters is that it is *this* sequence, every
  // run.
  JoinSequence expected = IdentitySequence(7);
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(r.sequence, expected);
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
