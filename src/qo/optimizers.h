#ifndef AQO_QO_OPTIMIZERS_H_
#define AQO_QO_OPTIMIZERS_H_

// Join-order optimizers for QO_N instances, and an exhaustive optimizer for
// QO_H. These are the algorithms the hardness theorems speak about: exact
// ones (exponential) establish ground truth on small instances; the
// polynomial heuristics are the "approximation algorithms" whose
// competitive ratio the paper proves cannot be polylogarithmic.

#include <cstdint>

#include "qo/qoh.h"
#include "qo/qon.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace aqo {

struct OptimizerResult {
  bool feasible = false;    // false when constraints rule out every sequence
  JoinSequence sequence;
  LogDouble cost;
  uint64_t evaluations = 0;  // sequences (or DP states) costed
  // kComplete for a full run; kBudgetExhausted / kDeadlineExceeded when the
  // run was cut short (sequence/cost are then the best-so-far plan, still
  // cost-consistent: cost == QonSequenceCost(inst, sequence)). kFailed is
  // only produced by the batch service (qo/service.h) when the run throws.
  PlanStatus status = PlanStatus::kComplete;
};

// Simulated-annealing knobs, nested in OptimizerOptions so the registry
// signature (instance, OptimizerOptions, Rng*) stays closed as knobs grow.
struct SaKnobs {
  int iterations = 20000;
  int restarts = 3;
};

// SimulatedAnnealingOptimizer's schedule: the initial temperature (in
// log2-cost units) and the geometric cooling factor applied per move.
inline constexpr double kSaInitialTemperature = 5.0;
inline constexpr double kSaCooling = 0.999;

// Genetic-optimizer knobs (see qo/genetic.h for the algorithm).
struct GaKnobs {
  int population = 64;
  int generations = 120;
};

// GeneticOptimizer's operators: the probability that a child is an order
// crossover of two parents (else a copy of one), the probability that it
// then takes a swap mutation, the tournament size, and the elites carried
// unchanged into each generation.
inline constexpr double kGaCrossoverRate = 0.9;
inline constexpr double kGaMutationRate = 0.3;
inline constexpr int kGaTournament = 3;
inline constexpr int kGaElites = 2;

// The full QO_N optimizer knob surface. Every optimizer reads the knobs it
// understands and ignores the rest, so one options value drives any
// registry entry (see qo/registry.h) without per-algorithm positional
// parameters leaking into call sites.
struct OptimizerOptions {
  // Disallow cartesian products (every non-first relation must connect to
  // the prefix). The paper notes (end of Section 4) the gap persists under
  // this restriction.
  bool forbid_cartesian = false;

  // RandomSamplingOptimizer: number of random sequences drawn.
  int samples = 1000;

  // IterativeImprovementOptimizer: number of random restarts.
  int restarts = 8;

  SaKnobs sa;
  GaKnobs ga;

  // Anytime limits (util/cancellation.h). budget.max_evaluations caps the
  // run deterministically at that many cost evaluations; budget.deadline_ms
  // adds a (nondeterministic) wall-clock limit. A default Budget changes
  // nothing: results, run-logs, and counters are bit-identical to an
  // unbudgeted build.
  Budget budget;
};

// Relation ceilings of the exact optimizers. Past them the search space
// (n!, 2^n subsets) outgrows memory or any useful budget, so the optimizer
// CHECK-fails; the registry entries (qo/registry.h) declare the same
// ceilings, so the serve path refuses such requests first.
inline constexpr int kExhaustiveQonMaxRelations = 10;
inline constexpr int kSubsetDpMaxRelations = 24;  // dp and cout
inline constexpr int kExhaustiveQohMaxRelations = 9;

// Tries all n! permutations. Guarded to kExhaustiveQonMaxRelations.
OptimizerResult ExhaustiveQonOptimizer(const QonInstance& inst,
                                       const OptimizerOptions& options = {});

// Exact left-deep optimum by dynamic programming over relation subsets,
// one pass over the subsets in numeric order. Correct because the QO_N
// extension cost depends on the prefix only through its *set*: N(X) and
// min_{k in X} AccessCost(k, j) are order-independent. O(2^n * n^2);
// guarded to kSubsetDpMaxRelations.
//
// Ties between equal-cost extensions break toward the lowest relation id,
// so the returned sequence is a pure function of the instance, never of
// subset enumeration order.
OptimizerResult DpQonOptimizer(const QonInstance& inst,
                               const OptimizerOptions& options = {});

// Greedy: tries every relation as the first, then repeatedly appends the
// relation with the cheapest next join. O(n^3). Polynomial baseline.
OptimizerResult GreedyQonOptimizer(const QonInstance& inst,
                                   const OptimizerOptions& options = {});

// Best of `options.samples` uniformly random (feasible) sequences.
OptimizerResult RandomSamplingOptimizer(const QonInstance& inst, Rng* rng,
                                        const OptimizerOptions& options = {});

// Simulated annealing over permutations (swap + relocate moves), with the
// standard accept rule applied to log2-cost differences. Knobs:
// options.sa.
OptimizerResult SimulatedAnnealingOptimizer(const QonInstance& inst, Rng* rng,
                                            const OptimizerOptions& options = {});

// Iterative improvement (first-improvement local search over swap moves)
// from random starts until a local optimum; keeps the best of
// `options.restarts` starts.
//
// From kIiRankedSwapsMinRelations relations up, each swap is first priced
// by the evaluator of qo/fast_eval.h, and a swap whose price proves it no
// cheaper than the current sequence skips its exact evaluation. Such a
// certified reject still counts in `evaluations`, exactly where the exact
// loop would have counted it, so (cost, sequence, status, evaluations) —
// and every budget cut point — are the same as pricing every swap
// exactly. On integer instances (the f_N instances among them) the price
// is the exact cost, so ties are rejected by price too and only
// improvements are evaluated exactly, each checked against its price's
// bits; elsewhere the price carries a certified error bound.
OptimizerResult IterativeImprovementOptimizer(
    const QonInstance& inst, Rng* rng, const OptimizerOptions& options = {});

// The size from which ranking pays for itself: below it, pricing a swap
// costs more than the exact evaluations it saves. Measured crossover, see
// docs/performance.md, "Ranked swaps in `ii`".
inline constexpr int kIiRankedSwapsMinRelations = 28;

// --- QO_H ---

struct QohOptimizerResult {
  bool feasible = false;
  JoinSequence sequence;
  PipelineDecomposition decomposition;
  LogDouble cost;
  uint64_t evaluations = 0;
  // Same semantics as OptimizerResult::status; best-so-far plans carry
  // their own optimal decomposition, so cost stays consistent.
  PlanStatus status = PlanStatus::kComplete;
};

// Exhaustive over permutations, each costed with its optimal decomposition.
// Guarded to kExhaustiveQohMaxRelations. The optional budget makes it
// anytime (checked once per permutation); the heuristics in
// qoh_optimizers.h take theirs through QohOptimizerOptions instead.
QohOptimizerResult ExhaustiveQohOptimizer(const QohInstance& inst,
                                          const Budget& budget = {});

// Greedy sequence construction for QO_H (min next intermediate size), then
// optimal decomposition. Polynomial baseline. Budget checked between
// starts.
QohOptimizerResult GreedyQohOptimizer(const QohInstance& inst,
                                      const Budget& budget = {});

}  // namespace aqo

#endif  // AQO_QO_OPTIMIZERS_H_
