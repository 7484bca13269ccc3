#include "reductions/pipeline.h"

#include <algorithm>

#include "obs/trace.h"
#include "sat/dpll.h"
#include "util/check.h"

namespace aqo {

SatToQonComposition ComposeSatToQon(const CnfFormula& formula,
                                    const SatToQonOptions& options) {
  obs::TraceSpan span("compose.sat_to_qon", "span");
  AQO_CHECK(formula.IsThreeCnf());
  AQO_CHECK(formula.NumClauses() >= 1);
  SatToQonComposition out;

  DpllResult sat;
  {
    obs::TraceSpan solve_span("compose.solve_sat", "span");
    sat = SolveDpll(formula);
  }
  AQO_CHECK(sat.complete);
  out.satisfiable = sat.assignment.has_value();
  if (options.exact_maxsat) {
    obs::TraceSpan maxsat_span("compose.maxsat", "span");
    out.min_unsat = formula.NumClauses() - MaxSatisfiableClauses(formula);
    AQO_CHECK((out.min_unsat == 0) == out.satisfiable);
  } else if (out.satisfiable) {
    out.min_unsat = 0;
  }

  out.clique_reduction = ReduceSatToClique(formula);
  const SatToCliqueResult& cl = out.clique_reduction;

  QonGapParams params;
  params.log2_alpha = options.log2_alpha;
  params.c = cl.EffectiveC();
  params.d = params.c - cl.EffectiveCMinusD(options.theta);
  out.gap = ReduceCliqueToQon(cl.graph, params);

  if (out.satisfiable) {
    std::vector<int> clique =
        cl.CliqueFromAssignment(formula, *sat.assignment);
    JoinSequence seq = CliqueFirstWitnessGreedy(out.gap.instance, clique);
    out.witness_cost = QonSequenceCost(out.gap.instance, seq);
    out.witness = std::move(seq);
  } else if (out.min_unsat > 0) {
    int omega_upper = cl.CliqueSizeForUnsat(out.min_unsat);
    out.certified_floor = out.gap.CertifiedLowerBound(omega_upper);
  }
  return out;
}

SatToQohComposition ComposeSatToQoh(const CnfFormula& formula,
                                    const SatToQohOptions& options) {
  obs::TraceSpan span("compose.sat_to_qoh", "span");
  AQO_CHECK(formula.IsThreeCnf());
  AQO_CHECK(formula.NumClauses() >= 1);
  SatToQohComposition out;

  DpllResult sat;
  {
    obs::TraceSpan solve_span("compose.solve_sat", "span");
    sat = SolveDpll(formula);
  }
  AQO_CHECK(sat.complete);
  out.satisfiable = sat.assignment.has_value();
  if (options.exact_maxsat) {
    obs::TraceSpan maxsat_span("compose.maxsat", "span");
    out.min_unsat = formula.NumClauses() - MaxSatisfiableClauses(formula);
    AQO_CHECK((out.min_unsat == 0) == out.satisfiable);
  } else if (out.satisfiable) {
    out.min_unsat = 0;
  }

  out.clique_reduction = ReduceSatToTwoThirdsClique(formula);
  const SatToCliqueResult& cl = out.clique_reduction;
  int n = cl.graph.NumVertices();
  AQO_CHECK(n % 3 == 0);

  QohGapParams params;
  params.log2_alpha = options.log2_alpha;
  params.eta = options.eta;
  out.gap = ReduceTwoThirdsCliqueToQoh(cl.graph, params);
  out.l_bound = out.gap.LBound();

  if (out.satisfiable) {
    std::vector<int> clique =
        cl.CliqueFromAssignment(formula, *sat.assignment);
    AQO_CHECK_EQ(static_cast<int>(clique.size()), 2 * n / 3);
    QohWitnessPlan plan = QohYesWitness(out.gap, clique);
    PipelineCostResult cost =
        DecompositionCost(out.gap.instance, plan.sequence, plan.decomposition);
    AQO_CHECK(cost.feasible) << "Lemma 12 witness must be feasible";
    out.witness_cost = cost.cost;
    out.witness = std::move(plan);
  } else if (out.min_unsat > 0) {
    // omega <= 2n/3 - u*  <=>  epsilon = 3 u* / n.
    double epsilon = 3.0 * static_cast<double>(out.min_unsat) /
                     static_cast<double>(n);
    out.no_floor = out.gap.GBound(std::min(epsilon, 2.0));
  }
  return out;
}

}  // namespace aqo
