#include "qo/qoh_optimizers.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

obs::Counter& CounterRef(const char* name) {
  return obs::Registry::Get().GetCounter(name);
}

JoinSequence RandomQohSequence(int n, Rng* rng, int sentinel_first) {
  JoinSequence seq;
  if (sentinel_first >= 0) {
    seq.push_back(sentinel_first);
    for (int v = 0; v < n; ++v) {
      if (v != sentinel_first) seq.push_back(v);
    }
    // Shuffle the tail only.
    for (size_t i = seq.size() - 1; i > 1; --i) {
      size_t j = static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(i)));
      std::swap(seq[i], seq[j]);
    }
  } else {
    seq = IdentitySequence(n);
    rng->Shuffle(&seq);
  }
  return seq;
}

void Consider(QohCostEvaluator* evaluator, const JoinSequence& seq,
              QohOptimizerResult* best) {
  const QohPlan& plan = evaluator->Evaluate(seq);
  ++best->evaluations;
  if (plan.feasible && (!best->feasible || plan.cost < best->cost)) {
    best->feasible = true;
    best->cost = plan.cost;
    best->sequence = seq;
    best->decomposition = plan.decomposition;
  }
}

// Positions eligible for moves: everything when sentinel_first < 0,
// otherwise positions 1..n-1.
size_t FirstMovable(int sentinel_first) { return sentinel_first >= 0 ? 1 : 0; }

}  // namespace

QohOptimizerResult RandomSamplingQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options) {
  AQO_CHECK(options.samples >= 1);
  static obs::Counter& drawn = CounterRef("qoh.sample.samples");
  int n = inst.NumRelations();
  RunGuard guard(options.budget);
  QohOptimizerResult best;
  QohCostEvaluator evaluator(inst);
  for (int s = 0; s < options.samples; ++s) {
    if (guard.ShouldStop(best.evaluations)) break;
    drawn.Increment();
    Consider(&evaluator, RandomQohSequence(n, rng, options.sentinel_first),
             &best);
  }
  best.status = guard.status();
  return best;
}

QohOptimizerResult IterativeImprovementQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options) {
  AQO_CHECK(options.restarts >= 1);
  static obs::Counter& restart_count = CounterRef("qoh.ii.restarts");
  static obs::Counter& improvements = CounterRef("qoh.ii.improvements");
  int n = inst.NumRelations();
  RunGuard guard(options.budget);
  QohOptimizerResult best;
  // Adjacent transpositions change two positions; the evaluator resumes
  // its prefix-size and decomposition DP state from the first of them.
  QohCostEvaluator evaluator(inst);
  for (int r = 0; r < options.restarts; ++r) {
    if (guard.ShouldStop(best.evaluations)) break;
    restart_count.Increment();
    JoinSequence current = RandomQohSequence(n, rng, options.sentinel_first);
    const QohPlan& plan = evaluator.Evaluate(current);
    ++best.evaluations;
    if (!plan.feasible) continue;
    LogDouble current_cost = plan.cost;
    if (!best.feasible || current_cost < best.cost) {
      best.feasible = true;
      best.cost = current_cost;
      best.sequence = current;
      best.decomposition = plan.decomposition;
    }
    bool improved = true;
    size_t lo = FirstMovable(options.sentinel_first);
    while (improved) {
      // `best` already folds every accepted improvement, so a mid-descent
      // cut loses nothing.
      if (guard.ShouldStop(best.evaluations)) break;
      improved = false;
      for (size_t a = lo; a + 1 < current.size() && !improved; ++a) {
        std::swap(current[a], current[a + 1]);
        const QohPlan& candidate = evaluator.Evaluate(current);
        ++best.evaluations;
        if (candidate.feasible && candidate.cost < current_cost) {
          current_cost = candidate.cost;
          improved = true;
          improvements.Increment();
          if (current_cost < best.cost) {
            best.cost = current_cost;
            best.sequence = current;
            best.decomposition = candidate.decomposition;
          }
        } else {
          std::swap(current[a], current[a + 1]);  // undo
        }
      }
    }
  }
  best.status = guard.status();
  return best;
}

QohOptimizerResult SimulatedAnnealingQohOptimizer(
    const QohInstance& inst, Rng* rng, const QohOptimizerOptions& options) {
  static obs::Counter& restarts = CounterRef("qoh.sa.restarts");
  static obs::Counter& accepts = CounterRef("qoh.sa.accepts");
  static obs::Counter& rejects = CounterRef("qoh.sa.rejects");
  int n = inst.NumRelations();
  RunGuard guard(options.budget);
  QohOptimizerResult best;
  QohCostEvaluator evaluator(inst);
  size_t lo = FirstMovable(options.sentinel_first);
  for (int r = 0; r < options.sa.restarts; ++r) {
    if (guard.ShouldStop(best.evaluations)) break;
    restarts.Increment();
    JoinSequence current = RandomQohSequence(n, rng, options.sentinel_first);
    const QohPlan& plan = evaluator.Evaluate(current);
    ++best.evaluations;
    if (!plan.feasible) continue;
    LogDouble current_cost = plan.cost;
    if (!best.feasible || current_cost < best.cost) {
      best.feasible = true;
      best.cost = current_cost;
      best.sequence = current;
      best.decomposition = plan.decomposition;
    }
    double temperature = kQohSaInitialTemperature;
    for (int it = 0; it < options.sa.iterations; ++it) {
      // Before the move draw: the guard never consumes RNG state, so a
      // capped trajectory is an exact prefix of the uncapped one.
      if (guard.ShouldStop(best.evaluations)) break;
      temperature *= kQohSaCooling;
      JoinSequence candidate = current;
      if (static_cast<size_t>(n) - lo < 2) break;
      size_t a = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(lo), n - 1));
      size_t b = static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(lo), n - 1));
      std::swap(candidate[a], candidate[b]);
      const QohPlan& next = evaluator.Evaluate(candidate);
      ++best.evaluations;
      if (!next.feasible) continue;
      double delta = next.cost.Log2() - current_cost.Log2();
      bool accept = delta <= 0.0 ||
                    rng->UniformReal() <
                        std::exp(-delta / std::max(temperature, 1e-9));
      if (accept) {
        accepts.Increment();
        current = std::move(candidate);
        current_cost = next.cost;
        if (current_cost < best.cost) {
          best.cost = current_cost;
          best.sequence = current;
          best.decomposition = next.decomposition;
        }
      } else {
        rejects.Increment();
      }
    }
  }
  best.status = guard.status();
  return best;
}

}  // namespace aqo
