// Quickstart: build a small QO_N instance, cost a plan by hand, and run
// the optimizer suite against the exact optimum.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "graph/graph.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "util/random.h"

int main() {
  using namespace aqo;

  // A five-relation query: orders -- customers -- nation, orders --
  // lineitem, orders -- payments. The query graph has an edge per join
  // predicate.
  //
  //   lineitem(0) --- orders(1) --- customers(2) --- nation(3)
  //                      |
  //                  payments(4)
  Graph graph = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
  std::vector<LogDouble> sizes = {
      LogDouble::FromLinear(6000000.0),  // lineitem
      LogDouble::FromLinear(1500000.0),  // orders
      LogDouble::FromLinear(150000.0),   // customers
      LogDouble::FromLinear(25.0),       // nation
      LogDouble::FromLinear(800000.0),   // payments
  };
  QonInstance query(graph, std::move(sizes));
  query.SetSelectivity(0, 1, LogDouble::FromLinear(1.0 / 1500000.0));
  query.SetSelectivity(1, 2, LogDouble::FromLinear(1.0 / 150000.0));
  query.SetSelectivity(2, 3, LogDouble::FromLinear(1.0 / 25.0));
  query.SetSelectivity(1, 4, LogDouble::FromLinear(1.0 / 1500000.0));

  const char* names[] = {"lineitem", "orders", "customers", "nation",
                         "payments"};

  // Cost a hand-written left-deep plan under the Section 2.1 nested-loops
  // model: C(Z) = sum_i N(prefix) * min-access-cost(next relation).
  JoinSequence hand = {3, 2, 1, 0, 4};  // nation first: worst idea ever?
  std::cout << "hand-written plan:";
  for (int r : hand) std::cout << " " << names[r];
  std::cout << "\n  cost = " << QonSequenceCost(query, hand) << "\n\n";

  // The exact optimum (dynamic programming over relation subsets).
  OptimizerResult optimal = DpQonOptimizer(query);
  std::cout << "optimal plan:    ";
  for (int r : optimal.sequence) std::cout << " " << names[r];
  std::cout << "\n  cost = " << optimal.cost << "\n\n";

  // Polynomial heuristics.
  Rng rng(1);
  OptimizerResult greedy = GreedyQonOptimizer(query);
  OptimizerResult local = IterativeImprovementOptimizer(query, &rng);
  std::cout << "greedy cost           = " << greedy.cost << "\n";
  std::cout << "local search cost     = " << local.cost << "\n";
  std::cout << "greedy/optimal ratio  = "
            << (greedy.cost / optimal.cost).ToLinear() << "\n";

  // Per-join cost breakdown of the optimal plan.
  std::cout << "\noptimal plan join costs:\n";
  std::vector<LogDouble> costs = QonJoinCosts(query, optimal.sequence);
  for (size_t i = 0; i < costs.size(); ++i) {
    std::cout << "  join " << i + 1 << " (+" << names[optimal.sequence[i + 1]]
              << "): " << costs[i] << "\n";
  }
  return 0;
}
