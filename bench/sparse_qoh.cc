// Experiment E6 — Theorem 17: the QO_H construction on sparse query
// graphs. At implementable alpha (the exact linear-domain memory model
// caps log2(alpha) at 104/(n-1)) the V2 slack cannot be driven to
// alpha^{o(1)}, so this experiment validates the *structural* claims:
// exact edge budgets, the forced sentinel-first plan, the V1-phase floor
// on NO instances, and the witness slack accounting of Section 6.2.

#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/cost_eval.h"
#include "qo/optimizers.h"
#include "reductions/sparse.h"
#include "util/table.h"

namespace aqo {
namespace {

void Run(const bench::Flags& flags) {
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 6)));
  std::vector<int> ns =
      flags.Quick() ? std::vector<int>{9} : std::vector<int>{9, 12};
  double tau = flags.GetDouble("tau", 0.9);

  TextTable table;
  table.SetTitle("E6 / Theorem 17: sparse QO_H structure under f_{H,e}");
  table.SetHeader({"n", "m", "e(m)", "sentinel forced", "YES wit-L (lg)",
                   "slack cap (lg)", "NO sampled-G (lg, min)"});

  for (int n : ns) {
    int m = n * n;
    SparseQohParams params;
    params.base.log2_alpha = 2.0;
    params.k = 2;
    params.edge_budget = SparseEdgeBudget(m, tau);

    // YES: complete source graph.
    Graph yes_g1 = Graph::Complete(n);
    SparseQohGapInstance yes =
        ReduceTwoThirdsCliqueToSparseQoh(yes_g1, params, &rng);
    std::vector<int> clique;
    for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
    QohWitnessPlan witness = SparseQohWitness(yes, yes_g1, clique);
    PipelineCostResult wit =
        DecompositionCost(yes.instance, witness.sequence, witness.decomposition);

    // Sentinel check: swapping R_0 out of the front kills feasibility.
    JoinSequence bad = witness.sequence;
    std::swap(bad[0], bad[3]);
    QohCostEvaluator yes_eval(yes.instance);
    bool forced = !yes_eval.Evaluate(bad).feasible;

    // NO: omega = 3.
    Graph no_g1 = CompleteMultipartite(n, 3);
    SparseQohGapInstance no =
        ReduceTwoThirdsCliqueToSparseQoh(no_g1, params, &rng);
    double epsilon = 2.0 - 9.0 / static_cast<double>(n);
    double floor = no.GBound(epsilon).Log2();
    double min_above_floor = 1e300;
    int samples = flags.Quick() ? 5 : 15;
    QohCostEvaluator no_eval(no.instance);
    for (int s = 0; s < samples; ++s) {
      JoinSequence seq = {0};
      JoinSequence rest;
      for (int v = 1; v < no.m; ++v) rest.push_back(v);
      rng.Shuffle(&rest);
      seq.insert(seq.end(), rest.begin(), rest.end());
      const QohPlan& plan = no_eval.Evaluate(seq);
      if (plan.feasible) {
        min_above_floor = std::min(min_above_floor, plan.cost.Log2() - floor);
      }
    }

    double slack_cap = static_cast<double>(yes.n) *
                       static_cast<double>(yes.m - yes.n - 1);
    table.AddRow({std::to_string(n), std::to_string(m),
                  std::to_string(yes.instance.graph().NumEdges()),
                  forced ? "yes" : "NO",
                  FormatDouble(wit.cost.Log2() - yes.LBound().Log2(), 5),
                  FormatDouble(slack_cap, 5),
                  FormatDouble(min_above_floor, 5)});
  }
  table.Print(std::cout);
  std::cout << "The witness slack stays below the n(m-n-1) cap and every\n"
               "sampled NO plan clears the G floor (last column >= 0).\n";
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "sparse_qoh", /*default_seed=*/6);
  aqo::Run(flags);
  return 0;
}
