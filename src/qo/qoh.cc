#include "qo/qoh.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace aqo {

namespace {

// Memory floor for building a hash table on `pages`: ceil(pages^eta),
// in linear pages (exact whenever it fits; the log2 round-trip would
// otherwise smear the integer by an ulp and break exact budget checks).
double HjMinLinear(LogDouble pages, double eta) {
  double l = pages.Log2() * eta;
  if (l <= 52.0) return std::ceil(std::exp2(l));
  return std::exp2(l);  // may overflow to +inf: certainly above any budget
}

LogDouble HjMin(LogDouble pages, double eta) {
  double linear = HjMinLinear(pages, eta);
  if (std::isfinite(linear)) return LogDouble::FromLinear(linear);
  return LogDouble::FromLog2(pages.Log2() * eta);
}

struct JoinShape {
  LogDouble outer;        // stream size b_R (intermediate, possibly huge)
  LogDouble inner;        // base relation size b_S
  LogDouble hjmin;        // memory floor
  double hjmin_linear;    // same, in pages (fits double whenever <= M)
  double inner_linear;    // +inf when the inner does not fit a double
  // Cost-per-page slope of granting memory beyond hjmin, used to rank
  // joins in the greedy allocator: (b_R + b_S) / (b_S - hjmin).
  LogDouble slope;
  double extra_capacity;  // b_S - hjmin, extra memory that still helps
};

// g(m, b_S) for this join given `extra` pages above the floor.
double GFactor(const JoinShape& js, double extra) {
  if (js.extra_capacity <= 0.0) return 0.0;
  double g = 1.0 - extra / js.extra_capacity;
  return std::clamp(g, 0.0, 1.0);
}

PipelineCostResult PipelineCostImpl(const QohInstance& inst,
                                    const JoinSequence& seq,
                                    const std::vector<LogDouble>& prefix,
                                    int first_join, int last_join) {
  PipelineCostResult result;
  int total_joins = static_cast<int>(seq.size()) - 1;
  AQO_CHECK(1 <= first_join && first_join <= last_join &&
            last_join <= total_joins);

  const LogDouble memory = LogDouble::FromLinear(inst.memory());
  std::vector<JoinShape> joins;
  double floor_sum = 0.0;
  for (int j = first_join; j <= last_join; ++j) {
    JoinShape js;
    js.outer = prefix[static_cast<size_t>(j)];
    js.inner = inst.size(seq[static_cast<size_t>(j)]);
    js.hjmin = HjMin(js.inner, inst.eta());
    if (js.hjmin > memory) return result;  // cannot build this hash table
    js.hjmin_linear = HjMinLinear(js.inner, inst.eta());
    js.inner_linear = js.inner.Log2() <= 52.0
                          ? js.inner.ToLinear()
                          : std::numeric_limits<double>::infinity();
    js.extra_capacity = js.inner_linear - js.hjmin_linear;  // may be +inf
    if (js.extra_capacity > 0.0) {
      js.slope = (js.outer + js.inner) / (js.inner - js.hjmin);
    } else {
      js.slope = LogDouble::Zero();  // already at g == 0
    }
    floor_sum += js.hjmin_linear;
    joins.push_back(js);
  }
  if (floor_sum > inst.memory()) return result;  // floors exceed the budget

  // Greedy continuous allocation: hand the leftover budget to joins in
  // decreasing slope order (each join's cost is linear in its grant, so
  // this is the exact optimum of the LP).
  double budget = inst.memory() - floor_sum;
  std::vector<size_t> order(joins.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&joins](size_t a, size_t b) {
    // Equal slopes break toward the earlier join so the allocation (and
    // any cost ties downstream) is a pure function of the instance.
    if (joins[a].slope != joins[b].slope) {
      return joins[a].slope > joins[b].slope;
    }
    return a < b;
  });
  std::vector<double> extra(joins.size(), 0.0);
  for (size_t i : order) {
    if (budget <= 0.0) break;
    double want = std::min(budget, joins[i].extra_capacity);
    if (want <= 0.0) continue;
    extra[i] = want;
    budget -= want;
  }

  // Fragment cost: read the input, run the joins, write the output.
  LogDouble cost = prefix[static_cast<size_t>(first_join)] +
                   prefix[static_cast<size_t>(last_join) + 1];
  result.allocation.reserve(joins.size());
  for (size_t i = 0; i < joins.size(); ++i) {
    const JoinShape& js = joins[i];
    double g = GFactor(js, extra[i]);
    LogDouble h = (js.outer + js.inner) * LogDouble::FromLinear(g) + js.inner;
    cost += h;
    result.allocation.push_back(js.hjmin_linear + extra[i]);
  }
  result.feasible = true;
  result.cost = cost;
  return result;
}

}  // namespace

QohInstance::QohInstance(Graph graph, std::vector<LogDouble> sizes,
                         double memory, double eta)
    : JoinGraph(std::move(graph), std::move(sizes)) {
  AQO_CHECK(0.0 < eta && eta < 1.0);
  AQO_CHECK(memory > 0.0 && std::isfinite(memory));
  memory_ = memory;
  eta_ = eta;
}

LogDouble QohInstance::HashJoinMinMemory(LogDouble pages) const {
  return HjMin(pages, eta_);
}

double QohInstance::HashJoinMinMemoryLinear(LogDouble pages) const {
  return HjMinLinear(pages, eta_);
}

std::pair<int, int> PipelineDecomposition::Fragment(int f,
                                                    int total_joins) const {
  AQO_CHECK(0 <= f && f < NumFragments());
  int first = starts[static_cast<size_t>(f)];
  int last = f + 1 < NumFragments() ? starts[static_cast<size_t>(f) + 1] - 1
                                    : total_joins;
  return {first, last};
}

PipelineCostResult OptimalPipelineCost(const QohInstance& inst,
                                       const JoinSequence& seq, int first_join,
                                       int last_join) {
  AQO_CHECK(IsPermutation(seq, inst.NumRelations()));
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  return PipelineCostImpl(inst, seq, prefix, first_join, last_join);
}

PipelineCostResult DecompositionCost(const QohInstance& inst,
                                     const JoinSequence& seq,
                                     const PipelineDecomposition& decomp) {
  PipelineCostResult total;
  int total_joins = static_cast<int>(seq.size()) - 1;
  AQO_CHECK(IsPermutation(seq, inst.NumRelations()));
  AQO_CHECK(!decomp.starts.empty() && decomp.starts[0] == 1)
      << "decomposition must start at join 1";
  for (size_t f = 1; f < decomp.starts.size(); ++f) {
    AQO_CHECK(decomp.starts[f] > decomp.starts[f - 1]);
    AQO_CHECK(decomp.starts[f] <= total_joins);
  }
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  LogDouble cost = LogDouble::Zero();
  for (int f = 0; f < decomp.NumFragments(); ++f) {
    auto [first, last] = decomp.Fragment(f, total_joins);
    PipelineCostResult fragment =
        PipelineCostImpl(inst, seq, prefix, first, last);
    if (!fragment.feasible) return total;
    cost += fragment.cost;
    total.allocation.insert(total.allocation.end(),
                            fragment.allocation.begin(),
                            fragment.allocation.end());
  }
  total.feasible = true;
  total.cost = cost;
  return total;
}

QohPlan OptimalDecomposition(const QohInstance& inst, const JoinSequence& seq) {
  static obs::Counter& calls =
      obs::Registry::Get().GetCounter("qoh.decomp.calls");
  static obs::Counter& pipeline_evals =
      obs::Registry::Get().GetCounter("qoh.decomp.pipeline_evals");
  static obs::Counter& fragments =
      obs::Registry::Get().GetCounter("qoh.decomp.fragments");
  calls.Increment();
  QohPlan plan;
  int total_joins = static_cast<int>(seq.size()) - 1;
  AQO_CHECK(total_joins >= 1) << "need at least two relations";
  AQO_CHECK(IsPermutation(seq, inst.NumRelations()));
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);

  // dp[k]: best cost of executing joins 1..k; parent[k]: start of the last
  // fragment in the best split.
  std::vector<bool> reachable(static_cast<size_t>(total_joins) + 1, false);
  std::vector<LogDouble> dp(static_cast<size_t>(total_joins) + 1);
  std::vector<int> parent(static_cast<size_t>(total_joins) + 1, 0);
  reachable[0] = true;
  dp[0] = LogDouble::Zero();
  for (int k = 1; k <= total_joins; ++k) {
    for (int i = 1; i <= k; ++i) {
      if (!reachable[static_cast<size_t>(i) - 1]) continue;
      pipeline_evals.Increment();
      PipelineCostResult frag = PipelineCostImpl(inst, seq, prefix, i, k);
      if (!frag.feasible) continue;
      LogDouble candidate = dp[static_cast<size_t>(i) - 1] + frag.cost;
      if (!reachable[static_cast<size_t>(k)] ||
          candidate < dp[static_cast<size_t>(k)]) {
        reachable[static_cast<size_t>(k)] = true;
        dp[static_cast<size_t>(k)] = candidate;
        parent[static_cast<size_t>(k)] = i;
      }
    }
  }
  if (!reachable[static_cast<size_t>(total_joins)]) return plan;

  std::vector<int> starts;
  for (int k = total_joins; k > 0; k = parent[static_cast<size_t>(k)] - 1) {
    starts.push_back(parent[static_cast<size_t>(k)]);
  }
  std::reverse(starts.begin(), starts.end());
  fragments.Add(starts.size());
  plan.feasible = true;
  plan.cost = dp[static_cast<size_t>(total_joins)];
  plan.decomposition.starts = std::move(starts);
  return plan;
}

}  // namespace aqo
