#include "qo/genetic.h"

#include <algorithm>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

struct Individual {
  JoinSequence sequence;
  LogDouble cost;      // meaningful only when valid
  bool valid = false;  // meets the cartesian-product restriction
};

// OX1 order crossover: copy a random slice from parent a, fill the rest in
// parent b's relative order.
JoinSequence OrderCrossover(const JoinSequence& a, const JoinSequence& b,
                            Rng* rng) {
  size_t n = a.size();
  size_t lo = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  size_t hi = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  if (lo > hi) std::swap(lo, hi);
  JoinSequence child(n, -1);
  std::vector<bool> used(n, false);
  for (size_t i = lo; i <= hi; ++i) {
    child[i] = a[i];
    used[static_cast<size_t>(a[i])] = true;
  }
  size_t fill = (hi + 1) % n;
  for (size_t k = 0; k < n; ++k) {
    int v = b[(hi + 1 + k) % n];
    if (used[static_cast<size_t>(v)]) continue;
    child[fill] = v;
    fill = (fill + 1) % n;
    while (fill >= lo && fill <= hi) fill = (fill + 1) % n;
  }
  return child;
}

}  // namespace

OptimizerResult GeneticOptimizer(const QonInstance& inst, Rng* rng,
                                 const OptimizerOptions& options) {
  const GaKnobs& ga = options.ga;
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(ga.population >= 4);
  static_assert(kGaElites < 4, "the elites must leave room for offspring");

  static obs::Counter& generations =
      obs::Registry::Get().GetCounter("qon.ga.generations");
  static obs::Counter& crossovers =
      obs::Registry::Get().GetCounter("qon.ga.crossovers");
  static obs::Counter& mutations =
      obs::Registry::Get().GetCounter("qon.ga.mutations");
  static obs::Counter& invalid =
      obs::Registry::Get().GetCounter("qon.ga.invalid_offspring");

  OptimizerResult result;
  QonCostEvaluator evaluator(inst);
  auto evaluate = [&](Individual* ind) {
    ind->valid = !options.forbid_cartesian ||
                 !HasCartesianProduct(inst.graph(), ind->sequence);
    if (!ind->valid) {
      invalid.Increment();
      return;
    }
    ind->cost = evaluator.Cost(ind->sequence);
    ++result.evaluations;
    if (!result.feasible || ind->cost < result.cost) {
      result.feasible = true;
      result.cost = ind->cost;
      result.sequence = ind->sequence;
    }
  };
  // Infeasible individuals lose every comparison. Equal costs break
  // lexicographically on the sequence (lowest relation id first): a total
  // order, so the std::sort below — and therefore elite survival — cannot
  // depend on the unspecified order unstable sorting leaves ties in.
  auto better = [](const Individual& x, const Individual& y) {
    if (x.valid != y.valid) return x.valid;
    if (!x.valid) return false;
    if (x.cost != y.cost) return x.cost < y.cost;
    return x.sequence < y.sequence;
  };

  std::vector<Individual> population(static_cast<size_t>(ga.population));
  for (Individual& ind : population) {
    ind.sequence = IdentitySequence(n);
    rng->Shuffle(&ind.sequence);
    evaluate(&ind);
  }

  // Checked once per generation (after the initial population, so a capped
  // run always carries the best initial individual). `evaluate` folds the
  // best-so-far continuously, making the cut lossless.
  RunGuard guard(options.budget);
  for (int gen = 0; gen < ga.generations; ++gen) {
    if (guard.ShouldStop(result.evaluations)) break;
    generations.Increment();
    std::sort(population.begin(), population.end(), better);
    std::vector<Individual> next(population.begin(),
                                 population.begin() + kGaElites);
    auto tournament_pick = [&]() -> const Individual& {
      const Individual* best = &population[static_cast<size_t>(
          rng->UniformInt(0, ga.population - 1))];
      for (int t = 1; t < kGaTournament; ++t) {
        const Individual& cand = population[static_cast<size_t>(
            rng->UniformInt(0, ga.population - 1))];
        if (better(cand, *best)) best = &cand;
      }
      return *best;
    };
    while (static_cast<int>(next.size()) < ga.population) {
      Individual child;
      if (rng->Bernoulli(kGaCrossoverRate)) {
        crossovers.Increment();
        child.sequence =
            OrderCrossover(tournament_pick().sequence,
                           tournament_pick().sequence, rng);
      } else {
        child.sequence = tournament_pick().sequence;
      }
      if (rng->Bernoulli(kGaMutationRate)) {
        mutations.Increment();
        size_t a = static_cast<size_t>(rng->UniformInt(0, n - 1));
        size_t b = static_cast<size_t>(rng->UniformInt(0, n - 1));
        std::swap(child.sequence[a], child.sequence[b]);
      }
      evaluate(&child);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }
  result.status = guard.status();
  return result;
}

}  // namespace aqo
