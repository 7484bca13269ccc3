// Experiment E1 — Theorem 9: the QO_N approximation gap.
//
// For each n, build f_N instances from (a) YES-side CLIQUE-class graphs
// with a planted clique of size cn, and (b) NO-side complete s-partite
// graphs with omega exactly s = (c-d)n (provably, without a clique
// solver). Report the YES witness/heuristic costs against K_{c,d}(alpha,n)
// and the NO certified floor and heuristic costs, plus the gap exponent
// measured in powers of alpha against the paper's (d/2)n - 1.
//
// The NO-side heuristic pool comes from the optimizer registry:
// --optimizers= selects it (default greedy,ii; unknown names are a hard
// error). With --plan-cache-mb=N the bench appends a duplicate-heavy
// plan-cache demonstration over relabeled NO instances — the workload the
// canonical-fingerprint cache is built for.

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
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "util/table.h"

namespace aqo {
namespace {

obs::InstanceShape ShapeOf(const QonInstance& inst, const std::string& kind,
                           const std::string& side) {
  return obs::InstanceShape{.family = "qon",
                            .kind = kind,
                            .side = side,
                            .source = "f_N",
                            .n = inst.NumRelations(),
                            .edges = inst.graph().NumEdges()};
}

constexpr double kC = 2.0 / 3.0;
constexpr double kD = 1.0 / 3.0;

std::vector<int> GridNs(const bench::Flags& flags) {
  // n >= 30/d = 90 is the paper regime.
  return flags.Quick() ? std::vector<int>{60, 90}
                       : std::vector<int>{60, 90, 120, 150};
}

// NO-side instance for a grid point: complete s-partite with omega
// exactly s = (c-d) n. Deterministic — no rng involved.
QonGapInstance NoInstance(int n, double log2_alpha) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
  int s = static_cast<int>((kC - kD) * n);
  return ReduceCliqueToQon(CompleteMultipartite(n, s), params);
}

void Run(const bench::Flags& flags, ThreadPool* pool,
         const std::vector<std::string>& names,
         const OptimizerOptions& knobs) {
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  std::vector<int> ns = GridNs(flags);
  std::vector<double> alphas = {2.0, 8.0};  // log2(alpha)

  TextTable table;
  table.SetTitle(
      "E1 / Theorem 9: QO_N YES/NO gap under f_N (costs as log2)");
  table.SetHeader({"n", "lg a", "lg K", "YES wit-K", "YES greedy-K",
                   "NO floor-K", "NO best-K", "gap (a units)",
                   "paper (d/2)n-1"});

  // One grid cell per (n, alpha); each cell draws from its own Rng stream
  // and cells fan across the pool, so the table and run-log are identical
  // for every --threads value.
  bench::SweepRunner sweep(pool, seed);
  auto cell = [&](size_t index, Rng* rng) -> std::vector<std::string> {
    int n = ns[index / alphas.size()];
    double log2_alpha = alphas[index % alphas.size()];
    // Whole-cell latency (instance build + every optimizer run).
    static obs::Histogram& cell_us =
        obs::Registry::Get().GetHistogram("qon_gap.cell_us");
    obs::ScopedLatencyTimer cell_timer(cell_us);
    obs::TraceSpan cell_slice("qon_gap.cell", "bench");
    cell_slice.Annotate("n", static_cast<uint64_t>(n));
    QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};

    // YES instance.
    std::vector<int> planted;
    int clique = static_cast<int>(kC * n);
    Graph yes_graph = CliqueClassGraph(n, 13, 1.0, clique, rng, &planted);
    QonGapInstance yes = ReduceCliqueToQon(yes_graph, params);
    JoinSequence witness = CliqueFirstWitnessGreedy(yes.instance, planted);
    double witness_cost = QonSequenceCost(yes.instance, witness).Log2();
    OptimizerResult yes_greedy = obs::InstrumentedRun(
        "qon.greedy", ShapeOf(yes.instance, "clique_yes", "yes"),
        [&] { return GreedyQonOptimizer(yes.instance); });

    // NO instance: best plan any selected registry heuristic finds.
    QonGapInstance no = NoInstance(n, log2_alpha);
    double floor = no.CertifiedLowerBound(
        static_cast<int>((kC - kD) * n)).Log2();
    obs::InstanceShape no_shape = ShapeOf(no.instance, "multipartite_no", "no");
    double no_best = 0.0;
    bool have_best = false;
    for (const std::string& name : names) {
      OptimizerResult r =
          obs::InstrumentedRun("qon." + name, no_shape, [&] {
            return OptimizerRegistry::Qon().Run(name, no.instance, knobs, rng);
          });
      if (!r.feasible) continue;
      double lg = r.cost.Log2();
      no_best = have_best ? std::min(no_best, lg) : lg;
      have_best = true;
    }

    double k = yes.KBound().Log2();
    double k_no = no.KBound().Log2();
    return {std::to_string(n), FormatDouble(log2_alpha, 3),
            FormatDouble(k, 6), FormatDouble(witness_cost - k, 4),
            FormatDouble(yes_greedy.cost.Log2() - k, 4),
            FormatDouble(floor - k_no, 4), FormatDouble(no_best - k_no, 4),
            FormatDouble((no_best - k_no - (witness_cost - k)) / log2_alpha,
                         4),
            FormatDouble(kD / 2.0 * n - 1.0, 4)};
  };
  for (const std::vector<std::string>& row :
       sweep.Map<std::vector<std::string>>(ns.size() * alphas.size(), cell)) {
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "Reading: YES costs sit at/below K while every NO plan found\n"
               "sits a growing power of alpha above it; the measured gap\n"
               "tracks the paper's (d/2)n - 1 exponent.\n";
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "qon_gap", /*default_seed=*/1);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  std::vector<std::string> names =
      aqo::bench::SelectedQonOptimizersOrDie(flags, "greedy,ii");
  aqo::OptimizerOptions defaults;
  defaults.restarts = 2;
  aqo::OptimizerOptions knobs = aqo::bench::ReadQonKnobs(flags, defaults);
  aqo::ThreadPool pool(flags.Threads());
  aqo::Run(flags, &pool, names, knobs);

  // Duplicate-heavy plan-cache demonstration (--plan-cache-mb=N enables):
  // each base instance appears --dup-factor times under random
  // relabelings, so (dup_factor-1)/dup_factor of the batch is duplicate
  // work under canonical fingerprinting. The bases are *random* workloads
  // (qo/workloads.h), not the gap instances: the gap constructions are
  // vertex-transitive by design, which is exactly the symmetric corner
  // where 1-WL canonicalization legitimately misses relabeled duplicates
  // (qo/fingerprint.h) — whereas production-like instances with generic
  // statistics canonicalize exactly. All cache flags are read
  // unconditionally so none can warn as unread.
  auto cache = aqo::bench::PlanCacheFromFlags(flags);
  int dup_factor = static_cast<int>(flags.GetInt("dup-factor", 3));
  std::string cache_opt = flags.GetString("cache-optimizer", "greedy");
  if (cache != nullptr) {
    const aqo::QonOptimizerEntry* entry =
        aqo::OptimizerRegistry::Qon().Find(cache_opt);
    if (entry == nullptr) {
      std::cerr << "error: unknown QO_N optimizer '" << cache_opt
                << "' in --cache-optimizer=\n";
      return 2;
    }
    std::vector<aqo::QonInstance> bases;
    aqo::Rng base_rng(aqo::MixSeed(seed, 0xcafe));
    int num_bases = flags.Quick() ? 4 : 8;
    for (int i = 0; i < num_bases; ++i) {
      int n = static_cast<int>(base_rng.UniformInt(20, 40));
      bases.push_back(aqo::RandomQonWorkload(n, &base_rng));
    }
    aqo::BatchOptions batch;
    batch.optimizer = entry->name;
    batch.qon = knobs;
    batch.seed = seed;
    std::cout << "\n";
    aqo::bench::RunQonPlanCacheDemo(cache.get(), &pool, batch, bases,
                                    dup_factor);
  }
  return 0;
}
