// Experiment E3 — Theorem 15: the QO_H approximation gap under f_H.
//
// YES side: complete source graphs (omega = n >= 2n/3), the Lemma 12
// 5-pipeline witness. NO side: complete 3-partite sources (omega = 3
// provably, epsilon = 2 - 9/n). We report witness cost vs L(alpha, n),
// the best plan found by the selected registry heuristics vs the
// G(alpha, n) floor, and the measured gap exponent vs the predicted
// n*eps/3 - 1.
//
// --optimizers= selects the QO_H heuristic pool (default random,greedy;
// unknown names are a hard error).

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/generators.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "reductions/clique_to_qoh.h"
#include "util/table.h"

namespace aqo {
namespace {

obs::InstanceShape ShapeOf(const QohInstance& inst, const std::string& kind,
                           const std::string& side) {
  return obs::InstanceShape{.family = "qoh",
                            .kind = kind,
                            .side = side,
                            .source = "f_H",
                            .n = inst.NumRelations(),
                            .edges = inst.graph().NumEdges()};
}

// Best optimal-decomposition cost over the selected registry optimizers.
double BestFoundCost(const QohInstance& inst,
                     const std::vector<std::string>& names,
                     const QohOptimizerOptions& knobs, Rng* rng,
                     const obs::InstanceShape& shape) {
  double best = 1e300;
  for (const std::string& name : names) {
    QohOptimizerResult r = obs::InstrumentedRun("qoh." + name, shape, [&] {
      return QohOptimizerRegistry::Get().Run(name, inst, knobs, rng);
    });
    if (r.feasible) best = std::min(best, r.cost.Log2());
  }
  return best;
}

// NO-side instance for a given n: complete 3-partite source, omega = 3.
QohGapInstance NoInstance(int n) {
  QohGapParams params;  // alpha = 4, eta = 0.5
  return ReduceTwoThirdsCliqueToQoh(CompleteMultipartite(n, 3), params);
}

void Run(const bench::Flags& flags, ThreadPool* pool,
         const std::vector<std::string>& names,
         const QohOptimizerOptions& knobs, const std::vector<int>& ns) {
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));

  TextTable table;
  table.SetTitle("E3 / Theorem 15: QO_H YES/NO gap under f_H (lg costs)");
  table.SetHeader({"n", "lg L", "YES wit-L", "YES best-L", "NO G-L",
                   "NO best-L", "gap (a units)", "paper n*eps/3-1"});

  // One cell per n, fanned across the pool on an Rng stream of its own;
  // see docs/parallelism.md for why output cannot depend on --threads.
  bench::SweepRunner sweep(pool, seed);
  auto cell = [&](size_t index, Rng* rng) -> std::vector<std::string> {
    int n = ns[index];
    // Whole-cell latency.
    static obs::Histogram& cell_us =
        obs::Registry::Get().GetHistogram("qoh_gap.cell_us");
    obs::ScopedLatencyTimer cell_timer(cell_us);
    obs::TraceSpan cell_slice("qoh_gap.cell", "bench");
    cell_slice.Annotate("n", static_cast<uint64_t>(n));
    QohGapParams params;  // alpha = 4, eta = 0.5

    // YES: complete graph; clique = first 2n/3 vertices.
    Graph yes_graph = Graph::Complete(n);
    QohGapInstance yes = ReduceTwoThirdsCliqueToQoh(yes_graph, params);
    std::vector<int> clique;
    for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
    QohWitnessPlan witness = QohYesWitness(yes, clique);
    PipelineCostResult wit_cost =
        DecompositionCost(yes.instance, witness.sequence, witness.decomposition);
    double yes_best = BestFoundCost(yes.instance, names, knobs, rng,
                                    ShapeOf(yes.instance, "complete_yes", "yes"));
    yes_best = std::min(yes_best, wit_cost.feasible ? wit_cost.cost.Log2()
                                                    : 1e300);

    // NO: omega = 3 exactly.
    QohGapInstance no = NoInstance(n);
    double epsilon = 2.0 - 9.0 / static_cast<double>(n);
    double no_best = BestFoundCost(no.instance, names, knobs, rng,
                                   ShapeOf(no.instance, "multipartite_no", "no"));

    double l = yes.LBound().Log2();
    double l_no = no.LBound().Log2();
    return {std::to_string(n), FormatDouble(l, 6),
            FormatDouble(wit_cost.cost.Log2() - l, 4),
            FormatDouble(yes_best - l, 4),
            FormatDouble(no.GBound(epsilon).Log2() - l_no, 4),
            FormatDouble(no_best - l_no, 4),
            FormatDouble((no_best - l_no - (yes_best - l)) / params.log2_alpha,
                         4),
            FormatDouble(static_cast<double>(n) * epsilon / 3.0 - 1.0, 4)};
  };
  for (const std::vector<std::string>& row :
       sweep.Map<std::vector<std::string>>(ns.size(), cell)) {
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "Reading: the YES witness tracks L while no sampled NO plan\n"
               "gets below the G floor; the measured gap exponent follows\n"
               "n*eps/3 - 1 as Theorem 15 predicts.\n";
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "qoh_gap", /*default_seed=*/3);
  std::vector<std::string> names =
      aqo::bench::SelectedQohOptimizersOrDie(flags, "random,greedy");
  aqo::QohOptimizerOptions defaults;
  defaults.samples = flags.Quick() ? 40 : 200;
  defaults.sentinel_first = 0;  // pin the sentinel, as the reduction intends
  aqo::QohOptimizerOptions knobs = aqo::bench::ReadQohKnobs(flags, defaults);
  std::vector<int> ns = flags.Quick() ? std::vector<int>{9, 12}
                                      : std::vector<int>{9, 12, 15, 18, 21};
  aqo::ThreadPool pool(flags.Threads());
  aqo::Run(flags, &pool, names, knobs, ns);
  return 0;
}
