// Tests for the 3SAT -> VERTEX COVER gadget (Theorem 2 / [5]) and the
// Lemma 3 / Lemma 4 clique reductions, cross-checked with exact solvers.

#include <gtest/gtest.h>

#include "graph/clique.h"
#include "reductions/sat_to_clique.h"
#include "reductions/sat_to_vc.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "tests/graph_oracles.h"
#include "util/random.h"

namespace aqo {
namespace {

TEST(SatToVc, GraphShape) {
  CnfFormula f(3);
  f.AddClause3(1, 2, 3);
  f.AddClause3(-1, -2, 3);
  SatToVcResult r = ReduceSatToVertexCover(f);
  EXPECT_EQ(r.graph.NumVertices(), 2 * 3 + 3 * 2);
  // v variable edges + 3m triangle edges + 3m wiring edges.
  EXPECT_EQ(r.graph.NumEdges(), 3 + 6 + 6);
}

TEST(SatToVc, CoverFromAssignmentIsValidCover) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    CnfFormula f = PlantedSatisfiableThreeSat(6, 10, &rng);
    DpllResult sat = SolveDpll(f);
    ASSERT_TRUE(sat.assignment.has_value());
    SatToVcResult r = ReduceSatToVertexCover(f);
    std::vector<int> cover = r.CoverFromAssignment(f, *sat.assignment);
    EXPECT_EQ(static_cast<int>(cover.size()), r.CoverSizeForUnsat(0));
    DynamicBitset cover_set(r.graph.NumVertices());
    for (int v : cover) cover_set.Set(v);
    EXPECT_TRUE(IsVertexCover(r.graph, cover_set));
  }
}

TEST(SatToVc, MinCoverTracksMinUnsatExactly) {
  // The load-bearing identity: min-VC = v + 2m + u*.
  Rng rng(72);
  for (int trial = 0; trial < 25; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 5));
    int m = static_cast<int>(rng.UniformInt(1, 6));
    CnfFormula f = RandomThreeSat(std::max(n, 3), m, &rng);
    SatToVcResult r = ReduceSatToVertexCover(f);
    int u_star = f.NumClauses() - MaxSatisfiableClauses(f);
    EXPECT_EQ(MinVertexCoverSize(r.graph), r.CoverSizeForUnsat(u_star))
        << "trial=" << trial;
  }
}

TEST(SatToClique, ShapeAndThresholds) {
  CnfFormula f(3);
  f.AddClause3(1, -2, 3);
  f.AddClause3(-1, 2, -3);
  SatToCliqueResult lemma3 = ReduceSatToClique(f);
  EXPECT_EQ(lemma3.graph.NumVertices(), 6 * 3 + 6 * 2);
  EXPECT_EQ(lemma3.YesCliqueSize(), 4 * 3 + 3 * 2 + 3 + 2);
  EXPECT_GT(lemma3.EffectiveC(), 2.0 / 3.0);  // paper: c > 2/3

  SatToCliqueResult lemma4 = ReduceSatToTwoThirdsClique(f);
  EXPECT_EQ(lemma4.graph.NumVertices(), 3 * (3 + 2 * 2));
  EXPECT_EQ(3 * lemma4.YesCliqueSize(), 2 * lemma4.graph.NumVertices());
}

TEST(SatToClique, OmegaEqualsThresholdMinusMinUnsat) {
  // omega(G) = YesCliqueSize - u*, verified with the exact clique solver.
  Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 4));
    int m = static_cast<int>(rng.UniformInt(1, 4));
    CnfFormula f = RandomThreeSat(std::max(n, 3), m, &rng);
    int u_star = f.NumClauses() - MaxSatisfiableClauses(f);
    for (bool two_thirds : {false, true}) {
      SatToCliqueResult r = two_thirds ? ReduceSatToTwoThirdsClique(f)
                                       : ReduceSatToClique(f);
      MaxCliqueResult omega = MaxClique(r.graph);
      EXPECT_EQ(static_cast<int>(omega.clique.size()),
                r.CliqueSizeForUnsat(u_star))
          << "trial=" << trial << " two_thirds=" << two_thirds;
    }
  }
}

TEST(SatToClique, WitnessCliqueFromSatisfyingAssignment) {
  Rng rng(74);
  for (int trial = 0; trial < 15; ++trial) {
    CnfFormula f = PlantedSatisfiableThreeSat(5, 8, &rng);
    DpllResult sat = SolveDpll(f);
    ASSERT_TRUE(sat.assignment.has_value());
    for (bool two_thirds : {false, true}) {
      SatToCliqueResult r = two_thirds ? ReduceSatToTwoThirdsClique(f)
                                       : ReduceSatToClique(f);
      std::vector<int> clique = r.CliqueFromAssignment(f, *sat.assignment);
      EXPECT_EQ(static_cast<int>(clique.size()), r.YesCliqueSize());
      EXPECT_TRUE(r.graph.IsClique(clique));
    }
  }
}

TEST(SatToClique, ComplementDegreeStaysBoundedFor3Sat13) {
  // The CLIQUE instance class of Section 3: for 3SAT(13) sources, the
  // complement's max degree is at most 14 (variable edge + 13 clause slots),
  // i.e. every vertex has degree >= |V| - 15.
  Rng rng(75);
  CnfFormula raw = RandomThreeSat(10, 60, &rng);
  CnfFormula f = BoundOccurrences(raw, 13);
  SatToCliqueResult r = ReduceSatToClique(f);
  int n = r.graph.NumVertices();
  EXPECT_GE(r.graph.MinDegree(), n - 1 - 14);
}

}  // namespace
}  // namespace aqo
