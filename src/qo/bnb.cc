#include "qo/bnb.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

class BnbSearch {
 public:
  BnbSearch(const QonInstance& inst, const OptimizerOptions& options)
      : inst_(inst),
        options_(options),
        evaluator_(inst),
        guard_(options.budget) {}

  OptimizerResult Run() {
    int n = inst_.NumRelations();
    AQO_CHECK(n >= 2);
    AQO_CHECK(n <= kBnbMaxRelations)
        << "mask-based search limited to 64-bit relation sets";

    // Greedy incumbent. Runs unbudgeted: it is the polynomial seed that
    // makes a budget-capped search anytime (the guard meters the
    // exponential part, nodes_, below).
    OptimizerOptions incumbent_options = options_;
    incumbent_options.budget = {};
    OptimizerResult greedy = GreedyQonOptimizer(inst_, incumbent_options);
    if (greedy.feasible) {
      best_ = greedy;
    }

    std::vector<int> prefix;
    for (int first = 0; first < n; ++first) {
      prefix = {first};
      Explore(uint64_t{1} << first, inst_.size(first), LogDouble::Zero(),
              &prefix);
      if (aborted_) break;
    }

    OptimizerResult out = best_;
    out.evaluations = nodes_;
    out.status = guard_.status();
    return out;
  }

 private:
  void Explore(uint64_t mask, LogDouble intermediate, LogDouble cost,
               std::vector<int>* prefix) {
    static obs::Counter& nodes_counter =
        obs::Registry::Get().GetCounter("qon.bnb.nodes");
    static obs::Counter& pruned_bound =
        obs::Registry::Get().GetCounter("qon.bnb.pruned_bound");
    static obs::Counter& pruned_dominated =
        obs::Registry::Get().GetCounter("qon.bnb.pruned_dominated");
    if (aborted_) return;
    ++nodes_;
    nodes_counter.Increment();
    // Checked after the count: a cap of N stops at the N-th node, before
    // that node is explored.
    if (guard_.ShouldStop(nodes_)) {
      aborted_ = true;
      return;
    }
    // Cost prune.
    if (best_.feasible && cost >= best_.cost) {
      pruned_bound.Increment();
      return;
    }
    // Dominance prune on the relation set.
    auto [it, inserted] = seen_.try_emplace(mask, cost);
    if (!inserted) {
      if (it->second <= cost) {
        pruned_dominated.Increment();
        return;
      }
      it->second = cost;
    }

    int n = inst_.NumRelations();
    if (static_cast<int>(prefix->size()) == n) {
      if (!best_.feasible || cost < best_.cost) {
        best_.feasible = true;
        best_.cost = cost;
        best_.sequence = *prefix;
      }
      return;
    }

    // Candidate extensions, cheapest next join first.
    struct Extension {
      int relation;
      LogDouble join_cost;
      LogDouble next_intermediate;
    };
    std::vector<Extension> extensions;
    for (int j = 0; j < n; ++j) {
      if (mask & (uint64_t{1} << j)) continue;
      if (options_.forbid_cartesian && !evaluator_.ConnectsTo(*prefix, j)) {
        continue;
      }
      Extension e;
      e.relation = j;
      // Same folds as before, over the evaluator's dense rows: seed with
      // t_j, then MinOf over the prefix in order (bit-identical).
      e.join_cost = intermediate *
                    evaluator_.MinAccessSeeded(inst_.size(j), *prefix, j);
      e.next_intermediate = inst_.ExtendSize(intermediate, *prefix, j);
      extensions.push_back(e);
    }
    std::sort(extensions.begin(), extensions.end(),
              [](const Extension& a, const Extension& b) {
                // Equal join costs explore the lowest relation id first,
                // so the anytime incumbent under a budget is a pure
                // function of the instance (std::sort is unstable).
                if (a.join_cost != b.join_cost) {
                  return a.join_cost < b.join_cost;
                }
                return a.relation < b.relation;
              });
    for (const Extension& e : extensions) {
      prefix->push_back(e.relation);
      Explore(mask | (uint64_t{1} << e.relation), e.next_intermediate,
              cost + e.join_cost, prefix);
      prefix->pop_back();
      if (aborted_) return;
    }
  }

  const QonInstance& inst_;
  OptimizerOptions options_;
  QonCostEvaluator evaluator_;
  RunGuard guard_;
  OptimizerResult best_;
  std::unordered_map<uint64_t, LogDouble> seen_;
  uint64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

OptimizerResult BranchAndBoundQonOptimizer(const QonInstance& inst,
                                           const OptimizerOptions& options) {
  return BnbSearch(inst, options).Run();
}

}  // namespace aqo
