#include "qo/genetic.h"

#include <algorithm>
#include <optional>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

struct Individual {
  JoinSequence sequence;
  // Exact cost; meaningful only when has_exact. Mutable with has_exact
  // because the fast tier memoizes exact re-pricing lazily from inside
  // const comparator contexts (see `better` below) — the memoization
  // never changes a comparison outcome, only who pays for it.
  mutable LogDouble cost;
  bool valid = false;  // meets the cartesian-product restriction
  mutable bool has_exact = false;
  double fast_log2 = 0.0;  // certified approximate price (fast tier only)
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
  AQO_CHECK(ga.elites < ga.population);

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
  // Fast tier: offspring are priced with the certified approximate
  // evaluator first. An individual provably worse than the incumbent is
  // not exactly evaluated up front (the exact tier's incumbent fold could
  // not fire for it); comparisons fall back to exact re-pricing only when
  // the certified error intervals overlap. Every comparison outcome — and
  // therefore the sort order, elite survival, tournament winners, and the
  // final (cost, sequence) — is bit-identical to the exact tier, and no
  // pricing path consumes RNG. See docs/performance.md.
  const bool use_fast = options.eval_tier == EvalTier::kFast &&
                        !cost_eval_internal::ForceNaive();
  std::optional<QonNeighborhoodEvaluator> fast;
  if (use_fast) fast.emplace(inst);
  static obs::Counter& certified =
      obs::Registry::Get().GetCounter("qo.fast_eval.certified_rejects");
  static obs::Counter& repricings =
      obs::Registry::Get().GetCounter("qo.fast_eval.exact_repricings");
  auto ensure_exact = [&](const Individual& ind) {
    if (ind.has_exact) return;
    ind.cost = evaluator.Cost(ind.sequence);
    ind.has_exact = true;
    repricings.Increment();
    ++result.evaluations;
  };
  auto evaluate = [&](Individual* ind) {
    ind->valid = !options.forbid_cartesian ||
                 !HasCartesianProduct(inst.graph(), ind->sequence);
    if (!ind->valid) {
      invalid.Increment();
      return;
    }
    if (!use_fast) {
      ind->cost = evaluator.Cost(ind->sequence);
      ind->has_exact = true;
      ++result.evaluations;
    } else {
      ind->fast_log2 = fast->SequenceCostLog2(ind->sequence);
      if (result.feasible &&
          ind->fast_log2 - fast->EpsLog2() > result.cost.Log2()) {
        // Certified: the exact cost is strictly above the incumbent, so
        // the exact tier's strict-< incumbent update could not fire.
        // Defer the exact evaluation until a comparison needs it.
        certified.Increment();
        return;
      }
      ensure_exact(*ind);
    }
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
  //
  // Fast tier: when either side lacks an exact cost, the certified bounds
  // decide first — |fast - exact| <= eps per side, so a gap wider than the
  // summed slack proves the strict exact ordering. Overlapping intervals
  // fall back to exact re-pricing of both sides, so the relation computed
  // here *is* the exact tier's relation (a strict weak order) in every
  // case.
  auto better = [&](const Individual& x, const Individual& y) {
    if (x.valid != y.valid) return x.valid;
    if (!x.valid) return false;
    if (use_fast && !(x.has_exact && y.has_exact)) {
      double fx = x.has_exact ? x.cost.Log2() : x.fast_log2;
      double fy = y.has_exact ? y.cost.Log2() : y.fast_log2;
      double slack =
          (x.has_exact || y.has_exact ? 1.0 : 2.0) * fast->EpsLog2();
      if (fx + slack < fy) return true;
      if (fy + slack < fx) return false;
      ensure_exact(x);
      ensure_exact(y);
    }
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
  RunGuard guard(options.budget, options.cancel);
  for (int gen = 0; gen < ga.generations; ++gen) {
    if (guard.ShouldStop(result.evaluations)) break;
    generations.Increment();
    std::sort(population.begin(), population.end(),
              [&](const Individual& x, const Individual& y) {
                return better(x, y);
              });
    std::vector<Individual> next(population.begin(),
                                 population.begin() + ga.elites);
    auto tournament_pick = [&]() -> const Individual& {
      const Individual* best = &population[static_cast<size_t>(
          rng->UniformInt(0, ga.population - 1))];
      for (int t = 1; t < ga.tournament; ++t) {
        const Individual& cand = population[static_cast<size_t>(
            rng->UniformInt(0, ga.population - 1))];
        if (better(cand, *best)) best = &cand;
      }
      return *best;
    };
    while (static_cast<int>(next.size()) < ga.population) {
      Individual child;
      if (rng->Bernoulli(ga.crossover_rate)) {
        crossovers.Increment();
        child.sequence =
            OrderCrossover(tournament_pick().sequence,
                           tournament_pick().sequence, rng);
      } else {
        child.sequence = tournament_pick().sequence;
      }
      if (rng->Bernoulli(ga.mutation_rate)) {
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
