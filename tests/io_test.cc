// Tests for the text serialization round-trips (io/serialization.h).

#include "io/serialization.h"

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/workloads.h"
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
    std::ostringstream os;
    WriteGraph(g, os);
    ParseResult<Graph> copy = ParseText(&ParseGraph, os.str());
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

// An override within rounding of its default, or one that differs from
// it only in the sign of a zero log2, is still an override: the writer
// emits it, so the reparse keeps its bits and the instance's fingerprint.
TEST(QonIo, OverridesNextToTheirDefaultKeepTheirBits) {
  struct Case {
    double size_log2;  // of relation 1
    double sel_log2;   // of edge {0, 1}
    double w_log2;     // AccessCost(0, 1)
  };
  // Defaults 2^19 and 2^+0; overrides 2^19.000000000000004 and 2^-0.
  for (Case c : {Case{20.0, -1.0, 19.000000000000004}, Case{1.0, -1.0, -0.0}}) {
    QonInstance inst(
        Graph::FromEdges(2, {{0, 1}}),
        {LogDouble::FromLog2(20.0), LogDouble::FromLog2(c.size_log2)});
    inst.SetSelectivity(0, 1, LogDouble::FromLog2(c.sel_log2));
    inst.SetAccessCost(0, 1, LogDouble::FromLog2(c.w_log2));
    std::string text = QonToString(inst);
    ParseResult<QonInstance> copy = ParseText(&ParseQonInstance, text);
    ASSERT_TRUE(copy.ok()) << copy.error;
    for (auto [k, j] : {std::pair{0, 1}, std::pair{1, 0}}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(copy.value->AccessCost(k, j).Log2()),
                std::bit_cast<uint64_t>(inst.AccessCost(k, j).Log2()))
          << text;
    }
    EXPECT_EQ(LabelQon(*copy.value).fingerprint, LabelQon(inst).fingerprint)
        << text;
  }
}

// Without overrides nothing but the rel and edge lines is written.
TEST(QonIo, DefaultAccessCostsWriteNoWLines) {
  Rng rng(145);
  for (int trial = 0; trial < 20; ++trial) {
    QonInstance inst = RandomQonWorkload(
        static_cast<int>(rng.UniformInt(2, 12)), &rng);
    EXPECT_EQ(QonToString(inst).find("\nw "), std::string::npos);
  }
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
