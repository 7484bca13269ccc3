#ifndef AQO_QO_WORKLOADS_H_
#define AQO_QO_WORKLOADS_H_

// Random workload generators: the "benign" instances that optimizers face
// in practice, as opposed to the adversarial gap instances from
// reductions/. Sizes are log-uniform, selectivities uniform in a
// configurable range; shapes cover the classical query-graph taxonomy
// (chain, star, tree, cycle, clique, random).

#include "graph/graph.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "util/random.h"

namespace aqo {

enum class WorkloadShape {
  kChain,
  kStar,
  kTree,
  kCycle,
  kClique,
  kRandom,  // G(n, p)
};

struct WorkloadOptions {
  WorkloadShape shape = WorkloadShape::kRandom;
  double edge_probability = 0.5;  // kRandom only
  double min_size = 10.0;
  double max_size = 1e6;
  double min_selectivity = 1e-5;
  double max_selectivity = 1.0;
};

// A QO_N instance with the requested shape; default access costs.
QonInstance RandomQonWorkload(int n, Rng* rng,
                              const WorkloadOptions& options = {});

// A QO_H instance; `memory_fraction` scales the budget relative to the sum
// of all relation sizes (1.0 = everything fits).
QohInstance RandomQohWorkload(int n, Rng* rng, double memory_fraction = 0.3,
                              const WorkloadOptions& options = {});

}  // namespace aqo

#endif  // AQO_QO_WORKLOADS_H_
