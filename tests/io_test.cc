// Tests for the text serialization round-trips (io/serialization.h).

#include "io/serialization.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/optimizers.h"
#include "reductions/clique_to_qon.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "util/random.h"

namespace aqo {
namespace {

template <typename T>
ParseResult<T> ParseText(ParseResult<T> (*parse)(std::istream&),
                         const std::string& text) {
  std::istringstream is(text);
  return parse(is);
}

TEST(GraphIo, RoundTrip) {
  Rng rng(141);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = Gnp(static_cast<int>(rng.UniformInt(1, 30)),
                  rng.UniformReal(0.0, 1.0), &rng);
    ParseResult<Graph> copy = ParseText(&ParseGraph, GraphToString(g));
    ASSERT_TRUE(copy.ok()) << copy.error;
    EXPECT_EQ(*copy.value, g);
  }
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  ParseResult<Graph> g = ParseText(
      &ParseGraph, "# a comment\n\ngraph 3 2\ne 0 1\n# another\ne 1 2\n");
  ASSERT_TRUE(g.ok()) << g.error;
  EXPECT_EQ(g.value->NumVertices(), 3);
  EXPECT_TRUE(g.value->HasEdge(0, 1));
  EXPECT_TRUE(g.value->HasEdge(1, 2));
}

TEST(DimacsIo, RoundTripPreservesSemantics) {
  Rng rng(142);
  for (int trial = 0; trial < 20; ++trial) {
    CnfFormula f = RandomThreeSat(8, 25, &rng);
    std::ostringstream os;
    WriteDimacs(f, os);
    ParseResult<CnfFormula> g = ParseText(&ParseDimacs, os.str());
    ASSERT_TRUE(g.ok()) << g.error;
    EXPECT_EQ(g.value->num_vars(), f.num_vars());
    EXPECT_EQ(g.value->NumClauses(), f.NumClauses());
    EXPECT_EQ(SolveDpll(f).assignment.has_value(),
              SolveDpll(*g.value).assignment.has_value());
  }
}

TEST(QonIo, RoundTripPreservesCosts) {
  Rng rng(143);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 10));
    Graph g = Gnp(n, 0.6, &rng);
    std::vector<LogDouble> sizes;
    for (int i = 0; i < n; ++i) {
      sizes.push_back(
          LogDouble::FromLinear(static_cast<double>(rng.UniformInt(2, 100000))));
    }
    QonInstance inst(g, std::move(sizes));
    for (const auto& [u, v] : g.Edges()) {
      inst.SetSelectivity(u, v,
                          LogDouble::FromLinear(rng.UniformReal(0.001, 1.0)));
    }
    ParseResult<QonInstance> copy =
        ParseText(&ParseQonInstance, QonToString(inst));
    ASSERT_TRUE(copy.ok()) << copy.error;
    ASSERT_EQ(copy.value->NumRelations(), n);
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    EXPECT_TRUE(QonSequenceCost(*copy.value, seq).ApproxEquals(
        QonSequenceCost(inst, seq), 1e-12));
  }
}

TEST(QonIo, AccessCostOverridesSurvive) {
  Graph g = Graph::FromEdges(2, {{0, 1}});
  QonInstance inst(g, {LogDouble::FromLinear(100.0), LogDouble::FromLinear(64.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.25));
  inst.SetAccessCost(0, 1, LogDouble::FromLinear(32.0));  // not the default 16
  ParseResult<QonInstance> copy =
      ParseText(&ParseQonInstance, QonToString(inst));
  ASSERT_TRUE(copy.ok()) << copy.error;
  EXPECT_TRUE(
      copy.value->AccessCost(0, 1).ApproxEquals(LogDouble::FromLinear(32.0)));
  EXPECT_TRUE(
      copy.value->AccessCost(1, 0).ApproxEquals(LogDouble::FromLinear(25.0)));
}

TEST(QonIo, GapInstanceRoundTripsWithHugeNumbers) {
  Rng rng(144);
  Graph g = CliqueClassGraph(30, 13, 1.0, 20, &rng);
  QonGapInstance gap = ReduceCliqueToQon(
      g, QonGapParams{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 1000.0});
  ParseResult<QonInstance> copy =
      ParseText(&ParseQonInstance, QonToString(gap.instance));
  ASSERT_TRUE(copy.ok()) << copy.error;
  JoinSequence seq = IdentitySequence(30);
  EXPECT_TRUE(QonSequenceCost(*copy.value, seq).ApproxEquals(
      QonSequenceCost(gap.instance, seq), 1e-12));
}

TEST(QohIo, RoundTripPreservesPlanCosts) {
  Rng rng(145);
  Graph g = Gnp(6, 0.7, &rng);
  std::vector<LogDouble> sizes(6, LogDouble::FromLinear(64.0));
  QohInstance inst(g, std::move(sizes), 170.0, 0.5);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.5));
  }
  std::ostringstream os;
  WriteQohInstance(inst, os);
  ParseResult<QohInstance> copy = ParseText(&ParseQohInstance, os.str());
  ASSERT_TRUE(copy.ok()) << copy.error;
  EXPECT_EQ(copy.value->memory(), 170.0);
  EXPECT_EQ(copy.value->eta(), 0.5);
  JoinSequence seq = IdentitySequence(6);
  QohPlan a = OptimalDecomposition(inst, seq);
  QohPlan b = OptimalDecomposition(*copy.value, seq);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_TRUE(a.cost.ApproxEquals(b.cost, 1e-12));
  }
}

}  // namespace
}  // namespace aqo
