// Experiment E7 — the paper's headline implication: no polynomial-time
// algorithm can be polylog-competitive on QO_N.
//
// Table 1: on random query graphs, polynomial heuristics stay within small
// factors of the exact (DP) optimum — the "justifiable optimism" of the
// introduction.
// Table 2: on f_N NO-side gap instances, the same heuristics' *certified*
// competitive ratios (heuristic cost over the certified floor, which
// bounds their ratio to the unknown optimum from below... conservatively:
// ratio to the YES-side K threshold) explode as alpha^{Theta(n)}: exactly
// the behaviour Theorem 9 proves unavoidable.
//
// The heuristic columns come from the optimizer registry: --optimizers=
// selects the subset (unknown names are a hard error), knob flags like
// --restarts= / --sa-iterations= override the per-table defaults.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/generators.h"
#include "obs/runlog.h"
#include "qo/optimizers.h"
#include "reductions/clique_to_qon.h"
#include "util/stats.h"
#include "util/table.h"

namespace aqo {
namespace {

obs::InstanceShape ShapeOf(const QonInstance& inst, const std::string& kind,
                           const std::string& side, const std::string& source) {
  return obs::InstanceShape{.family = "qon",
                            .kind = kind,
                            .side = side,
                            .source = source,
                            .n = inst.NumRelations(),
                            .edges = inst.graph().NumEdges()};
}

QonInstance RandomWorkload(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(LogDouble::FromLinear(
        static_cast<double>(rng->UniformInt(10, 1000000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.0001, 0.5)));
  }
  return inst;
}

OptimizerResult RunRegistered(const std::string& name, const QonInstance& inst,
                              const OptimizerOptions& knobs, Rng* rng,
                              const obs::InstanceShape& shape) {
  return obs::InstrumentedRun("qon." + name, shape, [&] {
    return OptimizerRegistry::Qon().Run(name, inst, knobs, rng);
  });
}

void RandomWorkloadTable(const bench::Flags& flags,
                         const bench::SweepRunner& sweep,
                         const std::vector<std::string>& names) {
  OptimizerOptions defaults;
  defaults.restarts = 4;
  defaults.sa.iterations = 4000;
  defaults.sa.restarts = 2;
  defaults.samples = 200;
  OptimizerOptions knobs = bench::ReadQonKnobs(flags, defaults);

  TextTable table;
  table.SetTitle("E7a: competitive ratios on random workloads (vs DP optimum)");
  std::vector<std::string> header = {"n", "p", "trials"};
  for (const std::string& name : names) {
    header.push_back(name + " p50/p95 (lg ratio)");
  }
  table.SetHeader(header);
  int trials = flags.Quick() ? 5 : 25;
  const std::vector<int> ns = {10, 14};
  const std::vector<double> ps = {0.4, 0.8};
  // One cell per (n, p); each cell's `trials` instances draw from the
  // cell's own Rng stream, so the table cannot depend on --threads.
  auto cell = [&](size_t index, Rng* rng) -> std::vector<std::string> {
    int n = ns[index / ps.size()];
    double p = ps[index % ps.size()];
    std::vector<SampleSet> ratios(names.size());
    for (int t = 0; t < trials; ++t) {
      QonInstance inst = RandomWorkload(n, p, rng);
      obs::InstanceShape shape = ShapeOf(inst, "gnp_random", "", "");
      OptimizerResult opt = obs::InstrumentedRun(
          "qon.dp", shape, [&] { return DpQonOptimizer(inst); });
      if (!opt.feasible) continue;
      double base = opt.cost.Log2();
      for (size_t a = 0; a < names.size(); ++a) {
        OptimizerResult r = RunRegistered(names[a], inst, knobs, rng, shape);
        if (r.feasible) ratios[a].Add(r.cost.Log2() - base);
      }
    }
    std::vector<std::string> row = {std::to_string(n), FormatDouble(p, 2),
                                    std::to_string(trials)};
    for (const SampleSet& s : ratios) {
      row.push_back(FormatDouble(s.Percentile(50), 3) + "/" +
                    FormatDouble(s.Percentile(95), 3));
    }
    return row;
  };
  for (const std::vector<std::string>& row :
       sweep.Map<std::vector<std::string>>(ns.size() * ps.size(), cell)) {
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "lg-ratio 0 = optimal; heuristics are near-optimal on\n"
               "benign random workloads.\n\n";
}

void GapInstanceTable(const bench::Flags& flags,
                      const bench::SweepRunner& sweep,
                      const std::vector<std::string>& names) {
  OptimizerOptions defaults;
  defaults.restarts = 2;
  defaults.sa.iterations = flags.Quick() ? 2000 : 10000;
  defaults.samples = 200;
  OptimizerOptions knobs = bench::ReadQonKnobs(flags, defaults);

  TextTable table;
  table.SetTitle(
      "E7b: the same heuristics on f_N NO instances (ratios vs YES-side K)");
  std::vector<std::string> header = {"n", "lg alpha", "floor/K (a units)"};
  for (const std::string& name : names) header.push_back(name + "/K");
  table.SetHeader(header);
  std::vector<int> ns =
      flags.Quick() ? std::vector<int>{30} : std::vector<int>{30, 60, 90};
  auto cell = [&](size_t index, Rng* rng) -> std::vector<std::string> {
    int n = ns[index];
    double log2_alpha = 8.0;
    QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0,
                        .log2_alpha = log2_alpha};
    int s = n / 3;  // omega of the multipartite NO instance
    Graph g = CompleteMultipartite(n, s);
    QonGapInstance gap = ReduceCliqueToQon(g, params);
    double k = gap.KBound().Log2();
    auto units = [&](double lg) { return FormatDouble((lg - k) / log2_alpha, 4); };
    obs::InstanceShape shape = ShapeOf(gap.instance, "gap", "no", "f_N");
    std::vector<std::string> row = {std::to_string(n),
                                    FormatDouble(log2_alpha, 3),
                                    units(gap.CertifiedLowerBound(s).Log2())};
    for (const std::string& name : names) {
      OptimizerResult r = RunRegistered(name, gap.instance, knobs, rng, shape);
      row.push_back(units(r.cost.Log2()));
    }
    return row;
  };
  for (const std::vector<std::string>& row :
       sweep.Map<std::vector<std::string>>(ns.size(), cell)) {
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "Every polynomial heuristic lands a Theta(n) number of alpha\n"
               "powers above the YES threshold K: on gap instances the\n"
               "competitive ratio is 2^{Theta(log^{1-d} K)}, not polylog.\n";
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "optimizers", /*default_seed=*/7);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  std::vector<std::string> names =
      aqo::bench::SelectedQonOptimizersOrDie(flags, "greedy,ii,sa,random");
  aqo::ThreadPool pool(flags.Threads());
  // The two tables use disjoint stream ranges of the same base seed, so
  // adding cells to E7a can never perturb E7b's draws.
  aqo::bench::SweepRunner e7a(&pool, aqo::MixSeed(seed, 1));
  aqo::bench::SweepRunner e7b(&pool, aqo::MixSeed(seed, 2));
  aqo::RandomWorkloadTable(flags, e7a, names);
  aqo::GapInstanceTable(flags, e7b, names);
  return 0;
}
