// Experiment E4 — Lemma 10: optimal memory allocation inside a pipeline.
//
// On an f_H instance, run the exact allocator on the witness prefix
// pipeline at lengths n/3 - 1, n/3, and n/3 + 1 and report the allocation
// shape (how many hash tables run at full size vs starved) and the cost —
// Lemma 10 predicts 0, 1, and 2 starved joins and costs
// O(N_{i-1} + N_k (+ starved outers)). A second table shows the pipeline
// decomposition DP recovering the Lemma 12 witness decomposition.

#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "graph/generators.h"
#include "qo/qoh.h"
#include "reductions/clique_to_qoh.h"
#include "util/table.h"

namespace aqo {
namespace {

void AllocationTable(const bench::Flags& flags) {
  TextTable table;
  table.SetTitle("E4a / Lemma 10: allocation shape vs pipeline length");
  table.SetHeader({"n", "pipeline joins", "full tables", "starved",
                   "lg pipeline cost", "lg (N_in + N_out)"});
  std::vector<int> ns =
      flags.Quick() ? std::vector<int>{12} : std::vector<int>{12, 18, 24};
  for (int n : ns) {
    Graph g = Graph::Complete(n);
    QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
    std::vector<int> clique;
    for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
    QohWitnessPlan witness = QohYesWitness(gap, clique);
    double t = gap.t.ToLinear();

    int third = n / 3;
    // Pipelines of length third-1, third, third+1 starting at join 2.
    for (int len : {third - 1, third, third + 1}) {
      int first = 2, last = 1 + len;
      PipelineCostResult r =
          OptimalPipelineCost(gap.instance, witness.sequence, first, last);
      if (!r.feasible) continue;
      int full = 0, starved = 0;
      for (double m : r.allocation) {
        if (m == t) {
          ++full;
        } else {
          ++starved;
        }
      }
      std::vector<LogDouble> prefix =
          PrefixSizes(gap.instance, witness.sequence);
      LogDouble in_out = prefix[static_cast<size_t>(first)] +
                         prefix[static_cast<size_t>(last) + 1];
      table.AddRow({std::to_string(n), std::to_string(len),
                    std::to_string(full), std::to_string(starved),
                    FormatDouble(r.cost.Log2(), 6),
                    FormatDouble(in_out.Log2(), 6)});
    }
  }
  table.Print(std::cout);
  std::cout << "Lemma 10: n/3-1 joins -> all full; n/3 -> one starved;\n"
               "n/3+1 -> two starved. Starved joins re-read their outer\n"
               "stream, which the cost column shows.\n\n";
}

void DecompositionTable(const bench::Flags& flags) {
  TextTable table;
  table.SetTitle("E4b / Lemma 12: decomposition DP vs the 5-pipeline witness");
  table.SetHeader({"n", "lg witness cost", "lg DP cost", "DP fragments",
                   "witness fragments"});
  std::vector<int> ns =
      flags.Quick() ? std::vector<int>{12} : std::vector<int>{12, 18, 24, 30};
  for (int n : ns) {
    Graph g = Graph::Complete(n);
    QohGapInstance gap = ReduceTwoThirdsCliqueToQoh(g, QohGapParams{});
    std::vector<int> clique;
    for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
    QohWitnessPlan witness = QohYesWitness(gap, clique);
    PipelineCostResult wit = DecompositionCost(
        gap.instance, witness.sequence, witness.decomposition);
    QohPlan dp = OptimalDecomposition(gap.instance, witness.sequence);
    table.AddRow({std::to_string(n),
                  FormatDouble(wit.feasible ? wit.cost.Log2() : -1, 6),
                  FormatDouble(dp.feasible ? dp.cost.Log2() : -1, 6),
                  std::to_string(dp.decomposition.NumFragments()),
                  std::to_string(witness.decomposition.NumFragments())});
  }
  table.Print(std::cout);
  std::cout << "The DP never does worse than the hand decomposition and\n"
               "typically matches it to within rounding.\n";
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "qoh_pipeline");
  aqo::AllocationTable(flags);
  aqo::DecompositionTable(flags);
  return 0;
}
