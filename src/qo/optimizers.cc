#include "qo/optimizers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

// Telemetry counters (see docs/observability.md for naming conventions).
// One registry lookup at first use, then a relaxed atomic add per event.
obs::Counter& CounterRef(const char* name) {
  return obs::Registry::Get().GetCounter(name);
}

// Generates a uniformly random sequence; when `forbid_cartesian`, grows a
// random connected order (falling back to an arbitrary vertex only when the
// graph is disconnected, in which case no cartesian-free order exists and
// the caller's feasibility check rejects).
JoinSequence RandomSequence(const QonInstance& inst, Rng* rng,
                            bool forbid_cartesian) {
  int n = inst.NumRelations();
  if (!forbid_cartesian) {
    JoinSequence seq = IdentitySequence(n);
    rng->Shuffle(&seq);
    return seq;
  }
  JoinSequence seq;
  DynamicBitset placed(n);
  seq.push_back(static_cast<int>(rng->UniformInt(0, n - 1)));
  placed.Set(seq[0]);
  while (static_cast<int>(seq.size()) < n) {
    std::vector<int> frontier;
    for (int v = 0; v < n; ++v) {
      if (!placed.Test(v) && inst.graph().Neighbors(v).Intersects(placed)) {
        frontier.push_back(v);
      }
    }
    int pick;
    if (frontier.empty()) {
      // Disconnected graph: forced cartesian product.
      std::vector<int> rest;
      for (int v = 0; v < n; ++v) {
        if (!placed.Test(v)) rest.push_back(v);
      }
      pick = rest[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(rest.size()) - 1))];
    } else {
      pick = frontier[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(frontier.size()) - 1))];
    }
    seq.push_back(pick);
    placed.Set(pick);
  }
  return seq;
}

bool SequenceAllowed(const QonInstance& inst, const JoinSequence& seq,
                     const OptimizerOptions& options) {
  return !options.forbid_cartesian || !HasCartesianProduct(inst.graph(), seq);
}

}  // namespace

OptimizerResult ExhaustiveQonOptimizer(const QonInstance& inst,
                                       const OptimizerOptions& options) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= kExhaustiveQonMaxRelations)
      << "exhaustive search is n! — use DpQonOptimizer";
  static obs::Counter& permutations = CounterRef("qon.exhaustive.permutations");
  static obs::Counter& skipped = CounterRef("qon.exhaustive.skipped");
  RunGuard guard(options.budget);
  OptimizerResult result;
  // next_permutation changes a suffix per step, so the incremental
  // evaluator re-costs only that suffix (bit-identical to the full pass).
  QonCostEvaluator evaluator(inst);
  JoinSequence seq = IdentitySequence(n);
  do {
    if (guard.ShouldStop(result.evaluations)) break;
    permutations.Increment();
    if (!SequenceAllowed(inst, seq, options)) {
      skipped.Increment();
      continue;
    }
    LogDouble cost = evaluator.Cost(seq);
    ++result.evaluations;
    if (!result.feasible || cost < result.cost) {
      result.feasible = true;
      result.cost = cost;
      result.sequence = seq;
    }
  } while (std::next_permutation(seq.begin(), seq.end()));
  result.status = guard.status();
  return result;
}

// --- Subset DP ---

namespace dp_detail {

constexpr int kNoParent = -1;

bool MaskConnectsTo(const Graph& g, size_t mask, int j) {
  for (size_t m = mask; m != 0; m &= m - 1) {
    if (g.HasEdge(std::countr_zero(m), j)) return true;
  }
  return false;
}

// Cost of the plan "src, then j": dp[src] + N(src) * min access cost,
// the min taken over src's bits in ascending order.
LogDouble CandidateCost(const QonInstance& inst,
                        const std::vector<LogDouble>& subset_size,
                        const std::vector<LogDouble>& dp, size_t src, int j) {
  LogDouble min_w = inst.size(j);  // upper bound; refined below
  for (size_t m = src; m != 0; m &= m - 1) {
    min_w = MinOf(min_w, inst.AccessCost(std::countr_zero(m), j));
  }
  return dp[src] + subset_size[src] * min_w;
}

// Peels the recorded last relations into the optimal sequence and
// cross-checks the reconstructed cost.
OptimizerResult FinishDp(const QonInstance& inst,
                         const std::vector<LogDouble>& dp,
                         const std::vector<int8_t>& last,
                         const std::vector<uint8_t>& reachable, size_t full,
                         uint64_t evaluations) {
  OptimizerResult result;
  result.evaluations = evaluations;
  if (!reachable[full]) return result;
  result.feasible = true;
  result.cost = dp[full];
  JoinSequence seq;
  size_t mask = full;
  while (mask != 0) {
    int j = last[mask];
    AQO_CHECK(j != kNoParent);
    seq.push_back(j);
    mask &= ~(static_cast<size_t>(1) << j);
  }
  std::reverse(seq.begin(), seq.end());
  result.sequence = seq;
  AQO_CHECK(QonSequenceCost(inst, seq).ApproxEquals(result.cost, 1e-6));
  return result;
}

// Best-so-far plan for a DP cut short mid-table: the partial dp table has
// no full-set plan yet, so the anytime answer is the greedy plan (run
// unbudgeted — it is polynomial and already the DP's quality floor).
// Deterministic: a pure function of the instance. `dp_evaluations` keeps
// the total evaluation count honest about the DP work already spent.
OptimizerResult FinishDpCutShort(const QonInstance& inst,
                                 const OptimizerOptions& options,
                                 PlanStatus status, uint64_t dp_evaluations) {
  OptimizerOptions fallback = options;
  fallback.budget = {};
  OptimizerResult result = GreedyQonOptimizer(inst, fallback);
  result.evaluations += dp_evaluations;
  result.status = status;
  return result;
}

void FlushDpCounters(uint64_t states, uint64_t transitions, uint64_t pruned) {
  static obs::Counter& dp_states = CounterRef("qon.dp.states");
  static obs::Counter& dp_transitions = CounterRef("qon.dp.transitions");
  static obs::Counter& dp_pruned = CounterRef("qon.dp.pruned_cartesian");
  // Counted in locals and flushed once: even relaxed atomics are too hot
  // for the innermost DP loop (measurable % on BM_DpOptimizer).
  dp_states.Add(states);
  dp_transitions.Add(transitions);
  dp_pruned.Add(pruned);
}

}  // namespace dp_detail

OptimizerResult DpQonOptimizer(const QonInstance& inst,
                               const OptimizerOptions& options) {
  using namespace dp_detail;
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= kSubsetDpMaxRelations)
      << "subset DP is 2^n — instance too large";
  size_t full = (static_cast<size_t>(1) << n) - 1;

  // N[mask]: intermediate size of the relation set `mask`.
  std::vector<LogDouble> subset_size = SubsetSizes(inst);

  std::vector<LogDouble> dp(full + 1);
  std::vector<int8_t> last(full + 1, kNoParent);  // last relation joined
  std::vector<uint8_t> reachable(full + 1, 0);
  for (int i = 0; i < n; ++i) {
    size_t mask = static_cast<size_t>(1) << i;
    reachable[mask] = 1;
    dp[mask] = LogDouble::Zero();
    last[mask] = static_cast<int8_t>(i);
  }

  RunGuard guard(options.budget);
  uint64_t local_states = 0, local_pruned = 0;
  uint64_t evaluations = 0;
  for (size_t mask = 1; mask <= full; ++mask) {
    if (guard.ShouldStop(evaluations)) {
      FlushDpCounters(local_states, evaluations, local_pruned);
      return FinishDpCutShort(inst, options, guard.status(), evaluations);
    }
    if (!reachable[mask]) continue;
    for (int j = 0; j < n; ++j) {
      size_t bit = static_cast<size_t>(1) << j;
      if (mask & bit) continue;
      if (options.forbid_cartesian &&
          !MaskConnectsTo(inst.graph(), mask, j)) {
        ++local_pruned;
        continue;
      }
      LogDouble candidate = CandidateCost(inst, subset_size, dp, mask, j);
      ++evaluations;
      size_t next = mask | bit;
      bool fresh = !reachable[next];
      local_states += fresh;
      // On exact cost ties the lowest last-relation id wins, so the
      // reconstructed sequence does not depend on the order in which
      // subsets are enumerated.
      if (fresh || candidate < dp[next] ||
          (candidate == dp[next] && j < last[next])) {
        reachable[next] = 1;
        dp[next] = candidate;
        last[next] = static_cast<int8_t>(j);
      }
    }
  }

  FlushDpCounters(local_states, evaluations, local_pruned);
  return FinishDp(inst, dp, last, reachable, full, evaluations);
}

OptimizerResult GreedyQonOptimizer(const QonInstance& inst,
                                   const OptimizerOptions& options) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  static obs::Counter& starts = CounterRef("qon.greedy.starts");
  static obs::Counter& extensions = CounterRef("qon.greedy.extensions");
  static obs::Counter& dead_ends = CounterRef("qon.greedy.dead_ends");
  RunGuard guard(options.budget);
  OptimizerResult result;
  // Constructive search: the evaluator's dense primitives replace the
  // scattered AccessCost/HasEdge lookups (same folds, bit-identical).
  QonCostEvaluator evaluator(inst);
  for (int start = 0; start < n; ++start) {
    // Between starts only: a cut-short greedy still returns complete
    // constructions, never a partial prefix.
    if (guard.ShouldStop(result.evaluations)) break;
    starts.Increment();
    std::vector<int> prefix = {start};
    DynamicBitset placed(n);
    placed.Set(start);
    LogDouble intermediate = inst.size(start);
    LogDouble cost = LogDouble::Zero();
    bool dead = false;
    while (static_cast<int>(prefix.size()) < n && !dead) {
      int best_j = -1;
      LogDouble best_h;
      bool must_connect = options.forbid_cartesian;
      // Two passes: prefer connected candidates when required.
      for (int pass = 0; pass < 2 && best_j < 0; ++pass) {
        for (int j = 0; j < n; ++j) {
          if (placed.Test(j)) continue;
          if (pass == 0 && !evaluator.ConnectsTo(prefix, j)) continue;
          LogDouble h = intermediate * evaluator.MinAccess(prefix, j);
          ++result.evaluations;
          if (best_j < 0 || h < best_h) {
            best_j = j;
            best_h = h;
          }
        }
        if (must_connect) break;  // do not fall back to cartesian products
      }
      if (best_j < 0) {
        dead = true;  // no connected extension exists
        dead_ends.Increment();
        break;
      }
      extensions.Increment();
      cost += best_h;
      intermediate = inst.ExtendSize(intermediate, prefix, best_j);
      prefix.push_back(best_j);
      placed.Set(best_j);
    }
    if (dead) continue;
    if (!result.feasible || cost < result.cost) {
      result.feasible = true;
      result.cost = cost;
      result.sequence = prefix;
    }
  }
  result.status = guard.status();
  return result;
}

OptimizerResult RandomSamplingOptimizer(const QonInstance& inst, Rng* rng,
                                        const OptimizerOptions& options) {
  AQO_CHECK(options.samples >= 1);
  static obs::Counter& drawn = CounterRef("qon.random.samples");
  static obs::Counter& rejected = CounterRef("qon.random.rejected");
  RunGuard guard(options.budget);
  OptimizerResult result;
  QonCostEvaluator evaluator(inst);
  for (int s = 0; s < options.samples; ++s) {
    if (guard.ShouldStop(result.evaluations)) break;
    drawn.Increment();
    JoinSequence seq = RandomSequence(inst, rng, options.forbid_cartesian);
    if (!SequenceAllowed(inst, seq, options)) {
      rejected.Increment();
      continue;
    }
    LogDouble cost = evaluator.Cost(seq);
    ++result.evaluations;
    if (!result.feasible || cost < result.cost) {
      result.feasible = true;
      result.cost = cost;
      result.sequence = std::move(seq);
    }
  }
  result.status = guard.status();
  return result;
}

OptimizerResult SimulatedAnnealingOptimizer(const QonInstance& inst, Rng* rng,
                                            const OptimizerOptions& options) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  static obs::Counter& restarts = CounterRef("qon.sa.restarts");
  static obs::Counter& accepts = CounterRef("qon.sa.accepts");
  static obs::Counter& rejects = CounterRef("qon.sa.rejects");
  static obs::Counter& uphill = CounterRef("qon.sa.uphill_accepts");
  RunGuard guard(options.budget);
  OptimizerResult result;
  // Swap/relocate moves touch a suffix; the evaluator re-costs only from
  // the first changed position of each candidate.
  QonCostEvaluator evaluator(inst);
  for (int restart = 0; restart < options.sa.restarts; ++restart) {
    if (guard.ShouldStop(result.evaluations)) break;
    restarts.Increment();
    JoinSequence current = RandomSequence(inst, rng, options.forbid_cartesian);
    if (!SequenceAllowed(inst, current, options)) continue;
    LogDouble current_cost = evaluator.Cost(current);
    ++result.evaluations;
    if (!result.feasible || current_cost < result.cost) {
      result.feasible = true;
      result.cost = current_cost;
      result.sequence = current;
    }
    double temperature = kSaInitialTemperature;
    for (int it = 0; it < options.sa.iterations; ++it) {
      // Checked before the move draw, so a capped trajectory is an exact
      // prefix of the uncapped one (the guard never consumes RNG state).
      if (guard.ShouldStop(result.evaluations)) break;
      JoinSequence candidate = current;
      if (rng->Bernoulli(0.5)) {
        // Swap two positions.
        size_t a = static_cast<size_t>(rng->UniformInt(0, n - 1));
        size_t b = static_cast<size_t>(rng->UniformInt(0, n - 1));
        std::swap(candidate[a], candidate[b]);
      } else {
        // Relocate one relation.
        size_t from = static_cast<size_t>(rng->UniformInt(0, n - 1));
        size_t to = static_cast<size_t>(rng->UniformInt(0, n - 1));
        int v = candidate[from];
        candidate.erase(candidate.begin() + static_cast<int64_t>(from));
        candidate.insert(candidate.begin() + static_cast<int64_t>(to), v);
      }
      temperature *= kSaCooling;
      if (!SequenceAllowed(inst, candidate, options)) continue;
      LogDouble candidate_cost = evaluator.Cost(candidate);
      ++result.evaluations;
      // Energy is log2 cost; accept uphill moves with the Boltzmann rule.
      double delta = candidate_cost.Log2() - current_cost.Log2();
      bool accept = delta <= 0.0 ||
                    rng->UniformReal() <
                        std::exp(-delta / std::max(temperature, 1e-9));
      if (accept) {
        accepts.Increment();
        if (delta > 0.0) uphill.Increment();
        current = std::move(candidate);
        current_cost = candidate_cost;
        if (current_cost < result.cost) {
          result.cost = current_cost;
          result.sequence = current;
        }
      } else {
        rejects.Increment();
      }
    }
  }
  result.status = guard.status();
  return result;
}

OptimizerResult IterativeImprovementOptimizer(const QonInstance& inst,
                                              Rng* rng,
                                              const OptimizerOptions& options) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  static obs::Counter& restart_count = CounterRef("qon.ii.restarts");
  static obs::Counter& improvements = CounterRef("qon.ii.improvements");
  static obs::Counter& local_optima = CounterRef("qon.ii.local_optima");
  RunGuard guard(options.budget);
  OptimizerResult result;
  // The swap neighborhood is the evaluator's best case: each candidate
  // differs from the last evaluated one at two positions.
  QonCostEvaluator evaluator(inst);
  // Ranked swaps (docs/performance.md, "Ranked swaps in `ii`"): a swap
  // whose price is at least current + eps has an exact cost no better
  // than current_cost, so the exact loop would reject it too. It skips
  // the exact evaluation but still counts one, keeping every result field
  // and budget cut point equal to the exact loop's. On integer instances
  // eps is 0 and the price is the exact cost, so ties are rejected too and
  // only improvements reach the exact evaluator, which checks the price's
  // bits. The naive-evaluation toggle turns ranking off, so naive runs
  // stay an independent reference.
  std::optional<QonNeighborhoodEvaluator> ranker;
  if (n >= kIiRankedSwapsMinRelations && !cost_eval_internal::ForceNaive()) {
    ranker.emplace(inst);
  }
  static obs::Counter& certified = CounterRef("qo.fast_eval.certified_rejects");
  static obs::Counter& repricings = CounterRef("qo.fast_eval.exact_repricings");
  for (int restart = 0; restart < options.restarts; ++restart) {
    if (guard.ShouldStop(result.evaluations)) break;
    restart_count.Increment();
    JoinSequence current = RandomSequence(inst, rng, options.forbid_cartesian);
    if (!SequenceAllowed(inst, current, options)) continue;
    LogDouble current_cost = evaluator.Cost(current);
    ++result.evaluations;
    bool improved = true;
    bool cut_short = false;
    while (improved) {
      // A cut mid-descent still folds `current` into the result below, so
      // the best-so-far reflects every accepted improvement.
      if (guard.ShouldStop(result.evaluations)) {
        cut_short = true;
        break;
      }
      improved = false;
      if (ranker) ranker->Load(current);
      for (size_t a = 0; a < current.size() && !improved; ++a) {
        for (size_t b = a + 1; b < current.size() && !improved; ++b) {
          std::swap(current[a], current[b]);
          if (SequenceAllowed(inst, current, options)) {
            ++result.evaluations;
            double price =
                ranker ? ranker->PriceSwap(static_cast<int>(a),
                                           static_cast<int>(b))
                       : 0.0;
            if (ranker && price >= current_cost.Log2() + ranker->EpsLog2()) {
              certified.Increment();
            } else {
              LogDouble cost = evaluator.Cost(current);
              if (ranker) {
                repricings.Increment();
                AQO_CHECK(ranker->EpsLog2() > 0.0 ||
                          std::bit_cast<uint64_t>(price) ==
                              std::bit_cast<uint64_t>(cost.Log2()))
                    << "swap (" << a << ", " << b << "): exact price "
                    << price << " differs from cost " << cost.Log2();
              }
              if (cost < current_cost) {
                current_cost = cost;
                improved = true;
                improvements.Increment();
                break;
              }
            }
          }
          std::swap(current[a], current[b]);  // undo
        }
      }
    }
    if (!cut_short) local_optima.Increment();
    if (!result.feasible || current_cost < result.cost) {
      result.feasible = true;
      result.cost = current_cost;
      result.sequence = current;
    }
  }
  result.status = guard.status();
  return result;
}

QohOptimizerResult ExhaustiveQohOptimizer(const QohInstance& inst,
                                          const Budget& budget) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= kExhaustiveQohMaxRelations)
      << "exhaustive QO_H search is n! * n^2";
  static obs::Counter& permutations = CounterRef("qoh.exhaustive.permutations");
  RunGuard guard(budget);
  QohOptimizerResult result;
  QohCostEvaluator evaluator(inst);
  JoinSequence seq = IdentitySequence(n);
  do {
    if (guard.ShouldStop(result.evaluations)) break;
    permutations.Increment();
    const QohPlan& plan = evaluator.Evaluate(seq);
    ++result.evaluations;
    if (plan.feasible && (!result.feasible || plan.cost < result.cost)) {
      result.feasible = true;
      result.cost = plan.cost;
      result.sequence = seq;
      result.decomposition = plan.decomposition;
    }
  } while (std::next_permutation(seq.begin(), seq.end()));
  result.status = guard.status();
  return result;
}

QohOptimizerResult GreedyQohOptimizer(const QohInstance& inst,
                                      const Budget& budget) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  static obs::Counter& starts = CounterRef("qoh.greedy.starts");
  RunGuard guard(budget);
  QohOptimizerResult result;
  QohCostEvaluator evaluator(inst);
  for (int start = 0; start < n; ++start) {
    if (guard.ShouldStop(result.evaluations)) break;
    starts.Increment();
    JoinSequence seq = {start};
    DynamicBitset placed(n);
    placed.Set(start);
    LogDouble intermediate = inst.size(start);
    while (static_cast<int>(seq.size()) < n) {
      int best_j = -1;
      LogDouble best_size;
      for (int j = 0; j < n; ++j) {
        if (placed.Test(j)) continue;
        LogDouble next = inst.ExtendSize(intermediate, seq, j);
        if (best_j < 0 || next < best_size) {
          best_j = j;
          best_size = next;
        }
      }
      seq.push_back(best_j);
      placed.Set(best_j);
      intermediate = best_size;
    }
    const QohPlan& plan = evaluator.Evaluate(seq);
    ++result.evaluations;
    if (plan.feasible && (!result.feasible || plan.cost < result.cost)) {
      result.feasible = true;
      result.cost = plan.cost;
      result.sequence = seq;
      result.decomposition = plan.decomposition;
    }
  }
  result.status = guard.status();
  return result;
}

}  // namespace aqo
