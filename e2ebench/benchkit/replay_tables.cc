// Traced replay of the gap_tables cells that make up nearly all of the
// table set's time (E1 qon_gap --quick=1, E6 sparse_qoh, E7 optimizers)
// plus E8 sqocp, whose SQO solvers no other cell reaches. Each cell
// repeats its bench's calls in the bench's order, with the bench's seeds
// and the SweepRunner streams Rng(MixSeed(seed, i)), so the replayed rows
// must equal the printed ones; spans wrap the calls into graph,
// reductions, optimizers, cost evaluation, the QO_H decomposition DP and
// sqo.

#include "replay_tables.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "qo/registry.h"
#include "reductions/clique_to_qon.h"
#include "reductions/sparse.h"
#include "sqo/partition.h"
#include "sqo/sppcs.h"
#include "sqo/star_query.h"
#include "trace.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace e2ebench {

namespace {

using Row = std::vector<std::string>;

// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int64_t op, Fn&& fn) {
  Tracer::Scope span(tracer, name, op);
  return fn();
}

class TableReplay {
 public:
  explicit TableReplay(Tracer* tracer) : tracer_(tracer) {}

  aqo::OptimizerResult RunQon(const std::string& name,
                              const aqo::QonInstance& inst,
                              const aqo::OptimizerOptions& knobs,
                              aqo::Rng* rng, int64_t op) {
    const char* span = name == "greedy" ? "optimizer.qon.greedy"
                       : name == "ii"   ? "optimizer.qon.ii"
                       : name == "sa"   ? "optimizer.qon.sa"
                       : name == "random" ? "optimizer.qon.random"
                                          : "optimizer.qon.other";
    aqo::OptimizerResult r = Timed(tracer_, span, op, [&] {
      return aqo::OptimizerRegistry::Qon().Run(name, inst, knobs, rng);
    });
    evaluations_[span] += r.evaluations;
    return r;
  }

  // E1 / Theorem 9 (bench/qon_gap.cc --quick=1).
  std::vector<Row> E1() {
    constexpr double kC = 2.0 / 3.0;
    constexpr double kD = 1.0 / 3.0;
    const std::vector<int> ns = {60, 90};
    const std::vector<double> alphas = {2.0, 8.0};
    const std::vector<std::string> names = {"greedy", "ii"};
    aqo::OptimizerOptions knobs;
    knobs.restarts = 2;
    std::vector<Row> rows;
    for (size_t index = 0; index < ns.size() * alphas.size(); ++index) {
      int64_t op = 100 + static_cast<int64_t>(index);
      Tracer::Scope cell(tracer_, "cell", op);
      aqo::Rng rng(aqo::MixSeed(1, index));
      int n = ns[index / alphas.size()];
      double log2_alpha = alphas[index % alphas.size()];
      aqo::QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
      std::vector<int> planted;
      int clique = static_cast<int>(kC * n);
      aqo::Graph yes_graph = Timed(tracer_, "graph.generate", op, [&] {
        return aqo::CliqueClassGraph(n, 13, 1.0, clique, &rng, &planted);
      });
      aqo::QonGapInstance yes = Timed(tracer_, "reductions.build", op, [&] {
        return aqo::ReduceCliqueToQon(yes_graph, params);
      });
      aqo::JoinSequence witness = Timed(tracer_, "reductions.witness", op, [&] {
        return aqo::CliqueFirstWitnessGreedy(yes.instance, planted);
      });
      double witness_cost = Timed(tracer_, "cost_eval.naive", op, [&] {
        return aqo::QonSequenceCost(yes.instance, witness).Log2();
      });
      aqo::OptimizerResult yes_greedy =
          Timed(tracer_, "optimizer.qon.greedy", op,
                [&] { return aqo::GreedyQonOptimizer(yes.instance); });
      evaluations_["optimizer.qon.greedy"] += yes_greedy.evaluations;

      int s = static_cast<int>((kC - kD) * n);
      aqo::Graph no_graph = Timed(tracer_, "graph.generate", op,
                                  [&] { return aqo::CompleteMultipartite(n, s); });
      aqo::QonGapInstance no = Timed(tracer_, "reductions.build", op, [&] {
        return aqo::ReduceCliqueToQon(no_graph, params);
      });
      double floor = Timed(tracer_, "reductions.bounds", op, [&] {
        return no.CertifiedLowerBound(static_cast<int>((kC - kD) * n)).Log2();
      });
      double no_best = 0.0;
      bool have_best = false;
      for (const std::string& name : names) {
        aqo::OptimizerResult r = RunQon(name, no.instance, knobs, &rng, op);
        if (!r.feasible) continue;
        double lg = r.cost.Log2();
        no_best = have_best ? std::min(no_best, lg) : lg;
        have_best = true;
      }
      auto [k, k_no] = Timed(tracer_, "reductions.bounds", op, [&] {
        return std::make_pair(yes.KBound().Log2(), no.KBound().Log2());
      });
      rows.push_back(
          {std::to_string(n), aqo::FormatDouble(log2_alpha, 3),
           aqo::FormatDouble(k, 6), aqo::FormatDouble(witness_cost - k, 4),
           aqo::FormatDouble(yes_greedy.cost.Log2() - k, 4),
           aqo::FormatDouble(floor - k_no, 4),
           aqo::FormatDouble(no_best - k_no, 4),
           aqo::FormatDouble(
               (no_best - k_no - (witness_cost - k)) / log2_alpha, 4),
           aqo::FormatDouble(kD / 2.0 * n - 1.0, 4)});
    }
    return rows;
  }

  // E6 / Theorem 17 (bench/sparse_qoh.cc).
  std::vector<Row> E6() {
    aqo::Rng rng(6);
    const double tau = 0.9;
    std::vector<Row> rows;
    for (int n : {9, 12}) {
      int64_t op = 600 + n;
      Tracer::Scope cell(tracer_, "cell", op);
      int m = n * n;
      aqo::SparseQohParams params;
      params.base.log2_alpha = 2.0;
      params.k = 2;
      params.edge_budget = aqo::SparseEdgeBudget(m, tau);

      aqo::Graph yes_g1 = Timed(tracer_, "graph.generate", op,
                                [&] { return aqo::Graph::Complete(n); });
      aqo::SparseQohGapInstance yes = Timed(tracer_, "reductions.build", op, [&] {
        return aqo::ReduceTwoThirdsCliqueToSparseQoh(yes_g1, params, &rng);
      });
      std::vector<int> clique;
      for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
      aqo::QohWitnessPlan witness = Timed(tracer_, "reductions.witness", op, [&] {
        return aqo::SparseQohWitness(yes, yes_g1, clique);
      });
      aqo::PipelineCostResult wit = Timed(tracer_, "cost_eval.naive", op, [&] {
        return aqo::DecompositionCost(yes.instance, witness.sequence,
                                      witness.decomposition);
      });
      aqo::JoinSequence bad = witness.sequence;
      std::swap(bad[0], bad[3]);
      bool forced = Timed(tracer_, "qoh.decomp", op, [&] {
        return !aqo::OptimalDecomposition(yes.instance, bad).feasible;
      });

      aqo::Graph no_g1 = Timed(tracer_, "graph.generate", op,
                               [&] { return aqo::CompleteMultipartite(n, 3); });
      aqo::SparseQohGapInstance no = Timed(tracer_, "reductions.build", op, [&] {
        return aqo::ReduceTwoThirdsCliqueToSparseQoh(no_g1, params, &rng);
      });
      double epsilon = 2.0 - 9.0 / static_cast<double>(n);
      double floor = Timed(tracer_, "reductions.bounds", op,
                           [&] { return no.GBound(epsilon).Log2(); });
      double min_above_floor = 1e300;
      for (int s = 0; s < 15; ++s) {
        aqo::JoinSequence seq = {0};
        aqo::JoinSequence rest;
        for (int v = 1; v < no.m; ++v) rest.push_back(v);
        rng.Shuffle(&rest);
        seq.insert(seq.end(), rest.begin(), rest.end());
        aqo::QohPlan plan = Timed(tracer_, "qoh.decomp", op, [&] {
          return aqo::OptimalDecomposition(no.instance, seq);
        });
        if (plan.feasible) {
          min_above_floor = std::min(min_above_floor, plan.cost.Log2() - floor);
        }
      }
      double slack_cap = static_cast<double>(yes.n) *
                         static_cast<double>(yes.m - yes.n - 1);
      double l_bound = Timed(tracer_, "reductions.bounds", op,
                             [&] { return yes.LBound().Log2(); });
      rows.push_back({std::to_string(n), std::to_string(m),
                      std::to_string(yes.instance.graph().NumEdges()),
                      forced ? "yes" : "NO",
                      aqo::FormatDouble(wit.cost.Log2() - l_bound, 5),
                      aqo::FormatDouble(slack_cap, 5),
                      aqo::FormatDouble(min_above_floor, 5)});
    }
    return rows;
  }

  // E7a (bench/optimizers.cc RandomWorkloadTable).
  std::vector<Row> E7a() {
    const std::vector<std::string> names = {"greedy", "ii", "sa", "random"};
    aqo::OptimizerOptions knobs;
    knobs.restarts = 4;
    knobs.sa.iterations = 4000;
    knobs.sa.restarts = 2;
    knobs.samples = 200;
    const int trials = 25;
    const std::vector<int> ns = {10, 14};
    const std::vector<double> ps = {0.4, 0.8};
    std::vector<Row> rows;
    for (size_t index = 0; index < ns.size() * ps.size(); ++index) {
      int64_t op = 700 + static_cast<int64_t>(index);
      Tracer::Scope cell(tracer_, "cell", op);
      aqo::Rng rng(aqo::MixSeed(aqo::MixSeed(7, 1), index));
      int n = ns[index / ps.size()];
      double p = ps[index % ps.size()];
      std::vector<aqo::SampleSet> ratios(names.size());
      for (int t = 0; t < trials; ++t) {
        // The bench's RandomWorkload: G(n, p), uniform sizes and
        // selectivities, all drawn from the cell's stream.
        aqo::QonInstance inst = Timed(tracer_, "graph.generate", op, [&] {
          aqo::Graph g = aqo::Gnp(n, p, &rng);
          std::vector<aqo::LogDouble> sizes;
          for (int i = 0; i < n; ++i) {
            sizes.push_back(aqo::LogDouble::FromLinear(
                static_cast<double>(rng.UniformInt(10, 1000000))));
          }
          aqo::QonInstance out(g, std::move(sizes));
          for (const auto& [u, v] : g.Edges()) {
            out.SetSelectivity(
                u, v, aqo::LogDouble::FromLinear(rng.UniformReal(0.0001, 0.5)));
          }
          return out;
        });
        aqo::OptimizerResult opt = Timed(tracer_, "optimizer.qon.dp", op,
                                         [&] { return aqo::DpQonOptimizer(inst); });
        evaluations_["optimizer.qon.dp"] += opt.evaluations;
        if (!opt.feasible) continue;
        double base = opt.cost.Log2();
        for (size_t a = 0; a < names.size(); ++a) {
          aqo::OptimizerResult r = RunQon(names[a], inst, knobs, &rng, op);
          if (r.feasible) ratios[a].Add(r.cost.Log2() - base);
        }
      }
      Row row = {std::to_string(n), aqo::FormatDouble(p, 2),
                 std::to_string(trials)};
      for (const aqo::SampleSet& s : ratios) {
        row.push_back(aqo::FormatDouble(s.Percentile(50), 3) + "/" +
                      aqo::FormatDouble(s.Percentile(95), 3));
      }
      rows.push_back(row);
    }
    return rows;
  }

  // E7b (bench/optimizers.cc GapInstanceTable).
  std::vector<Row> E7b() {
    const std::vector<std::string> names = {"greedy", "ii", "sa", "random"};
    aqo::OptimizerOptions knobs;
    knobs.restarts = 2;
    knobs.sa.iterations = 10000;
    knobs.samples = 200;
    const std::vector<int> ns = {30, 60, 90};
    std::vector<Row> rows;
    for (size_t index = 0; index < ns.size(); ++index) {
      int64_t op = 750 + static_cast<int64_t>(index);
      Tracer::Scope cell(tracer_, "cell", op);
      aqo::Rng rng(aqo::MixSeed(aqo::MixSeed(7, 2), index));
      int n = ns[index];
      double log2_alpha = 8.0;
      aqo::QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0,
                               .log2_alpha = log2_alpha};
      int s = n / 3;
      aqo::Graph g = Timed(tracer_, "graph.generate", op,
                           [&] { return aqo::CompleteMultipartite(n, s); });
      aqo::QonGapInstance gap = Timed(tracer_, "reductions.build", op,
                                      [&] { return aqo::ReduceCliqueToQon(g, params); });
      auto [k, floor] = Timed(tracer_, "reductions.bounds", op, [&] {
        return std::make_pair(gap.KBound().Log2(),
                              gap.CertifiedLowerBound(s).Log2());
      });
      auto units = [&](double lg) {
        return aqo::FormatDouble((lg - k) / log2_alpha, 4);
      };
      Row row = {std::to_string(n), aqo::FormatDouble(log2_alpha, 3),
                 units(floor)};
      for (const std::string& name : names) {
        row.push_back(units(RunQon(name, gap.instance, knobs, &rng, op).cost.Log2()));
      }
      rows.push_back(row);
    }
    return rows;
  }

  // E8 (bench/sqocp.cc), without its wall-clock column.
  std::vector<Row> E8() {
    aqo::Rng rng(8);
    const int trials = 100;
    std::vector<Row> rows;
    for (int n : {3, 4, 5}) {
      int64_t op = 800 + n;
      Tracer::Scope cell(tracer_, "cell", op);
      int agree_sppcs = 0, agree_sqo = 0, yes_count = 0, run = 0;
      int max_bits = 0;
      for (int t = 0; t < trials; ++t) {
        aqo::PartitionInstance part = Timed(tracer_, "sqo.reduce", op, [&] {
          return aqo::RandomPartitionInstance(n, 6, rng.Bernoulli(0.5), &rng);
        });
        aqo::PartitionInstance cleaned;
        for (int64_t v : part.values) {
          if (v > 0) cleaned.values.push_back(v);
        }
        if (cleaned.values.empty() || cleaned.Total() < 4) continue;
        ++run;
        bool partition_yes = Timed(tracer_, "sqo.solve", op, [&] {
          return aqo::SolvePartitionBrute(cleaned).has_value();
        });
        aqo::SppcsInstance sppcs = Timed(tracer_, "sqo.reduce", op, [&] {
          return aqo::ReducePartitionToSppcs(cleaned);
        });
        bool sppcs_yes = Timed(tracer_, "sqo.solve", op,
                               [&] { return aqo::SolveSppcsBrute(sppcs).yes; });
        aqo::SppcsToSqoCpResult red = Timed(tracer_, "sqo.reduce", op,
                                            [&] { return aqo::ReduceSppcsToSqoCp(sppcs); });
        aqo::SqoCpResult sqo = Timed(tracer_, "sqo.solve", op,
                                     [&] { return aqo::SolveSqoCpExact(red.instance); });
        yes_count += partition_yes;
        agree_sppcs += partition_yes == sppcs_yes;
        agree_sqo += partition_yes == sqo.within_budget;
        max_bits = std::max(max_bits, red.instance.budget.BitLength());
      }
      rows.push_back(
          {std::to_string(n), std::to_string(run),
           aqo::FormatDouble(100.0 * yes_count / std::max(run, 1), 3) + "%",
           aqo::FormatDouble(100.0 * agree_sppcs / std::max(run, 1), 4) + "%",
           aqo::FormatDouble(100.0 * agree_sqo / std::max(run, 1), 4) + "%",
           std::to_string(max_bits)});
    }
    return rows;
  }

  const std::map<std::string, uint64_t>& evaluations() const {
    return evaluations_;
  }

 private:
  Tracer* tracer_;
  std::map<std::string, uint64_t> evaluations_;
};

std::string RowsJson(const std::vector<Row>& rows) {
  std::string out = "[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += JsonString(rows[r][c]);
    }
    out += "]";
  }
  return out + "]";
}

uint64_t CounterValue(const char* name) {
  return aqo::obs::Registry::Get().GetCounter(name).Value();
}

}  // namespace

int RunTablesReplay(const std::string& spans_path) {
  Tracer tracer;
  TableReplay replay(&tracer);
  uint64_t pipeline_evals = CounterValue("qoh.decomp.pipeline_evals");
  uint64_t candidates = CounterValue("qo.fast_eval.candidates");
  uint64_t repricings = CounterValue("qo.fast_eval.exact_repricings");

  JsonObject rows;
  JsonObject wall;
  int64_t start = NowNs();
  rows.AddRaw("E1", RowsJson(replay.E1()));
  wall.Add("E1", static_cast<double>(NowNs() - start) / 1e9);
  start = NowNs();
  rows.AddRaw("E6", RowsJson(replay.E6()));
  wall.Add("E6", static_cast<double>(NowNs() - start) / 1e9);
  start = NowNs();
  rows.AddRaw("E7a", RowsJson(replay.E7a()));
  rows.AddRaw("E7b", RowsJson(replay.E7b()));
  wall.Add("E7", static_cast<double>(NowNs() - start) / 1e9);
  start = NowNs();
  rows.AddRaw("E8", RowsJson(replay.E8()));
  wall.Add("E8", static_cast<double>(NowNs() - start) / 1e9);

  JsonObject evals;
  for (const auto& [name, count] : replay.evaluations()) evals.Add(name, count);
  if (!spans_path.empty()) tracer.Write(spans_path);

  JsonObject out;
  out.AddRaw("rows", rows.str())
      .AddRaw("wall_s", wall.str())
      .AddRaw("layers", LayersJson(tracer.SelfTimes()))
      .AddRaw("evaluations", evals.str())
      .Add("pipeline_evals", CounterValue("qoh.decomp.pipeline_evals") - pipeline_evals)
      .Add("fast_candidates", CounterValue("qo.fast_eval.candidates") - candidates)
      .Add("fast_repricings",
           CounterValue("qo.fast_eval.exact_repricings") - repricings);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace e2ebench
