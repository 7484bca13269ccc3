#ifndef AQO_QO_QOH_OPTIMIZERS_H_
#define AQO_QO_QOH_OPTIMIZERS_H_

// Heuristic optimizers for QO_H (sequence search on top of the optimal
// pipeline-decomposition DP). The exhaustive and greedy baselines live in
// optimizers.h; these add the sampling / local-search / annealing family,
// each costing candidate sequences with OptimalDecomposition — so every
// result is a *complete* executable plan (sequence + decomposition +
// memory allocation).

#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "util/random.h"

namespace aqo {

// SimulatedAnnealingQohOptimizer's schedule: the initial temperature (in
// log2-cost units) and the geometric cooling factor applied per move.
inline constexpr double kQohSaInitialTemperature = 5.0;
inline constexpr double kQohSaCooling = 0.998;

// The full QO_H optimizer knob surface — the QO_H analogue of
// OptimizerOptions. Every QO_H heuristic reads the knobs it understands
// and ignores the rest, keeping the registry signature (see
// qo/registry.h) closed as knobs grow.
struct QohOptimizerOptions {
  // RandomSamplingQohOptimizer: number of random sequences drawn.
  int samples = 200;

  // IterativeImprovementQohOptimizer: number of random restarts.
  int restarts = 4;

  // When >= 0, every candidate sequence starts with this relation (the
  // f_H reduction instances admit nothing else as a first relation).
  int sentinel_first = -1;

  // SimulatedAnnealingQohOptimizer's knobs: each move prices a whole
  // decomposition, so QO_H anneals fewer moves than QO_N does.
  SaKnobs sa{.iterations = 3000, .restarts = 2};

  // Anytime limits — same semantics as OptimizerOptions.budget
  // (util/cancellation.h): a default Budget changes nothing, bit for bit.
  Budget budget;
};

// Best of `options.samples` random sequences. Sequences start from a
// random relation unless options.sentinel_first pins the first position.
QohOptimizerResult RandomSamplingQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options = {});

// First-improvement local search over adjacent transpositions, from
// `options.restarts` random starts.
QohOptimizerResult IterativeImprovementQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options = {});

// Simulated annealing over sequences (swap moves above the sentinel),
// each candidate costed with its optimal decomposition. Knobs: options.sa.
QohOptimizerResult SimulatedAnnealingQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options = {});

}  // namespace aqo

#endif  // AQO_QO_QOH_OPTIMIZERS_H_
