// Pipelined hash-join planning (the QO_H model of Section 2.2): build a
// star-ish query, pick a join sequence, and let the library find the
// optimal pipeline decomposition and per-join memory allocation under a
// global memory budget.
//
//   ./build/examples/pipelined_hash_joins

#include <iostream>

#include "graph/graph.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"

int main() {
  using namespace aqo;

  // A 6-relation query: fact table joined to five dimensions of varying
  // size, dimensions 4 and 5 also correlated with each other.
  Graph graph = Graph::FromEdges(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {4, 5}});
  std::vector<LogDouble> sizes = {
      LogDouble::FromLinear(1 << 20),  // fact: 1M pages
      LogDouble::FromLinear(4096.0),   // dim 1
      LogDouble::FromLinear(16384.0),  // dim 2
      LogDouble::FromLinear(1024.0),   // dim 3
      LogDouble::FromLinear(65536.0),  // dim 4
      LogDouble::FromLinear(8192.0),   // dim 5
  };
  double memory = 40000.0;  // total pages for all hash tables in a pipeline
  QohInstance query(graph, std::move(sizes), memory);
  query.SetSelectivity(0, 1, LogDouble::FromLinear(1.0 / 4096.0));
  query.SetSelectivity(0, 2, LogDouble::FromLinear(1.0 / 16384.0));
  query.SetSelectivity(0, 3, LogDouble::FromLinear(1.0 / 1024.0));
  query.SetSelectivity(0, 4, LogDouble::FromLinear(1.0 / 65536.0));
  query.SetSelectivity(0, 5, LogDouble::FromLinear(1.0 / 8192.0));
  query.SetSelectivity(4, 5, LogDouble::FromLinear(0.25));

  // Fact table first (it streams; the dimensions get the hash tables).
  JoinSequence seq = {0, 3, 1, 5, 2, 4};

  QohPlan plan = OptimalDecomposition(query, seq);
  if (!plan.feasible) {
    std::cout << "no feasible execution: memory below the hjmin floors\n";
    return 1;
  }
  std::cout << "sequence: R0";
  for (size_t i = 1; i < seq.size(); ++i) std::cout << " |x| R" << seq[i];
  std::cout << "\n  optimal decomposition cost = " << plan.cost << "\n";
  int total_joins = static_cast<int>(seq.size()) - 1;
  for (int f = 0; f < plan.decomposition.NumFragments(); ++f) {
    auto [first, last] = plan.decomposition.Fragment(f, total_joins);
    PipelineCostResult frag = OptimalPipelineCost(query, seq, first, last);
    std::cout << "  pipeline " << f + 1 << ": joins " << first << ".." << last
              << ", cost " << frag.cost << ", memory grants:";
    for (double m : frag.allocation) std::cout << " " << m;
    std::cout << "\n";
  }

  // Compare against running everything as one pipeline (memory-starved)
  // and against materializing after every join.
  PipelineCostResult one = OptimalPipelineCost(query, seq, 1, total_joins);
  std::cout << "\nsingle pipeline cost       = "
            << (one.feasible ? one.cost : LogDouble::Zero()) << "\n";
  PipelineDecomposition all_breaks;
  for (int j = 1; j <= total_joins; ++j) all_breaks.starts.push_back(j);
  PipelineCostResult each = DecompositionCost(query, seq, all_breaks);
  std::cout << "materialize-every-join cost = " << each.cost << "\n";

  // And let the exhaustive optimizer pick the sequence too.
  QohOptimizerResult best = ExhaustiveQohOptimizer(query);
  std::cout << "\nbest sequence overall:";
  for (int r : best.sequence) std::cout << " R" << r;
  std::cout << "  cost = " << best.cost << "\n";
  return 0;
}
