#ifndef AQO_QO_GENETIC_H_
#define AQO_QO_GENETIC_H_

// Genetic join-order optimizer: the third classical metaheuristic family
// (after iterative improvement and simulated annealing) used for
// large-join-query optimization. Permutation-encoded individuals, order
// crossover (OX1), swap mutation, tournament selection, elitism.

#include "qo/optimizers.h"
#include "qo/qon.h"
#include "util/random.h"

namespace aqo {

// Knobs read from options.ga; options.forbid_cartesian and options.budget
// apply as for the other local-search optimizers.
OptimizerResult GeneticOptimizer(const QonInstance& inst, Rng* rng,
                                 const OptimizerOptions& options = {});

}  // namespace aqo

#endif  // AQO_QO_GENETIC_H_
