#include "reductions/sat_to_clique.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace aqo {

namespace {

SatToCliqueResult BuildWithPadding(const CnfFormula& formula,
                                   int num_universal) {
  obs::TraceSpan span("reduce.sat_to_clique", "span");
  static obs::Counter& calls =
      obs::Registry::Get().GetCounter("reduce.sat_to_clique.calls");
  calls.Increment();
  SatToCliqueResult result;
  result.num_vars = formula.num_vars();
  result.num_clauses = formula.NumClauses();
  result.num_universal = num_universal;

  SatToVcResult vc = ReduceSatToVertexCover(formula);
  Graph core = vc.graph.Complement();
  int n0 = core.NumVertices();
  Graph g(n0 + num_universal);
  for (const auto& [u, v] : core.Edges()) g.AddEdge(u, v);
  for (int p = 0; p < num_universal; ++p) {
    for (int v = 0; v < n0 + p; ++v) g.AddEdge(n0 + p, v);
  }
  static obs::Counter& vertices =
      obs::Registry::Get().GetCounter("reduce.sat_to_clique.vertices");
  static obs::Counter& edges =
      obs::Registry::Get().GetCounter("reduce.sat_to_clique.edges");
  vertices.Add(static_cast<uint64_t>(g.NumVertices()));
  edges.Add(static_cast<uint64_t>(g.NumEdges()));
  result.graph = std::move(g);
  result.vc = std::move(vc);
  return result;
}

}  // namespace

int SatToCliqueResult::CliqueSizeForUnsat(int u_star) const {
  // Independent set of the gadget graph = n0 - (v + 2m + u*)
  //                                     = v + m - u*; plus the padding.
  return num_universal + num_vars + num_clauses - u_star;
}

std::vector<int> SatToCliqueResult::CliqueFromAssignment(
    const CnfFormula& formula, const Assignment& a) const {
  AQO_CHECK(formula.IsSatisfiedBy(a)) << "witness needs a satisfying assignment";
  std::vector<int> cover = vc.CoverFromAssignment(formula, a);
  int n0 = vc.graph.NumVertices();
  std::vector<bool> in_cover(static_cast<size_t>(n0), false);
  for (int v : cover) in_cover[static_cast<size_t>(v)] = true;
  std::vector<int> clique;
  for (int v = 0; v < n0; ++v) {
    if (!in_cover[static_cast<size_t>(v)]) clique.push_back(v);
  }
  for (int p = 0; p < num_universal; ++p) clique.push_back(n0 + p);
  AQO_CHECK_EQ(static_cast<int>(clique.size()), YesCliqueSize());
  AQO_CHECK(graph.IsClique(clique));
  return clique;
}

double SatToCliqueResult::EffectiveC() const {
  return static_cast<double>(YesCliqueSize()) /
         static_cast<double>(graph.NumVertices());
}

double SatToCliqueResult::EffectiveCMinusD(double theta) const {
  return (static_cast<double>(YesCliqueSize()) -
          theta * static_cast<double>(num_clauses)) /
         static_cast<double>(graph.NumVertices());
}

SatToCliqueResult ReduceSatToClique(const CnfFormula& formula) {
  int v = formula.num_vars();
  int m = formula.NumClauses();
  SatToCliqueResult result = BuildWithPadding(formula, 4 * v + 3 * m);
  AQO_CHECK_EQ(result.graph.NumVertices(), 6 * v + 6 * m);
  return result;
}

SatToCliqueResult ReduceSatToTwoThirdsClique(const CnfFormula& formula) {
  int v = formula.num_vars();
  int m = formula.NumClauses();
  SatToCliqueResult result = BuildWithPadding(formula, v + 3 * m);
  AQO_CHECK_EQ(result.graph.NumVertices(), 3 * (v + 2 * m));
  AQO_CHECK_EQ(3 * result.YesCliqueSize(), 2 * result.graph.NumVertices());
  return result;
}

}  // namespace aqo
