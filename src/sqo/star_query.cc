#include "sqo/star_query.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace aqo {

namespace {

BigInt MinOf(const BigInt& a, const BigInt& b) { return a < b ? a : b; }

// Marginal cost of joining satellite `sat` into intermediate of n(W) =
// `inter` tuples (which contains R_0 and at least one more relation, so
// b(W) = n(W)).
BigInt LaterJoinCost(const SqoCpInstance& inst, const BigInt& inter, int sat,
                     JoinMethod method) {
  size_t i = static_cast<size_t>(sat) - 1;
  if (method == JoinMethod::kNestedLoops) return inter * inst.w[i];
  return inter * BigInt(inst.ks - 1) + inst.SortCost(sat);
}

BigInt FirstJoinCost(const SqoCpInstance& inst, int first, int second,
                     JoinMethod method) {
  if (method == JoinMethod::kSortMerge) {
    return inst.SortCost(first) + inst.SortCost(second);
  }
  if (first == 0) {
    size_t i = static_cast<size_t>(second) - 1;
    return inst.central_pages + inst.w[i] * inst.central_tuples;
  }
  AQO_CHECK_EQ(second, 0);
  size_t i = static_cast<size_t>(first) - 1;
  return inst.pages[i] + inst.w0[i] * inst.tuples[i];
}

}  // namespace

void SqoCpInstance::Validate() const {
  size_t s = static_cast<size_t>(num_satellites);
  AQO_CHECK(num_satellites >= 1);
  AQO_CHECK(ks >= 2);
  AQO_CHECK(tuples.size() == s && pages.size() == s && match.size() == s &&
            w.size() == s && w0.size() == s);
  AQO_CHECK(central_tuples.Sign() > 0 && central_pages.Sign() > 0);
  for (size_t i = 0; i < s; ++i) {
    AQO_CHECK(tuples[i].Sign() > 0 && pages[i].Sign() > 0);
    AQO_CHECK(match[i].Sign() > 0) << "match factor must be positive";
    AQO_CHECK(w[i].Sign() > 0 && w0[i].Sign() > 0);
  }
}

bool SqoCpInstance::InTwoPassSortRegime() const {
  // mem = n_0 / 2; require mem < b_r <= mem^2 for every relation.
  BigInt mem = central_tuples >> 1;
  if (mem.Sign() <= 0) return false;
  BigInt mem_sq = mem * mem;
  if (central_pages <= mem || central_pages > mem_sq) return false;
  for (const BigInt& b : pages) {
    if (b <= mem || b > mem_sq) return false;
  }
  return true;
}

BigInt SqoCpPlanCost(const SqoCpInstance& inst, const SqoCpPlan& plan) {
  int s = inst.num_satellites;
  AQO_CHECK_EQ(plan.sequence.size(), static_cast<size_t>(s) + 1);
  AQO_CHECK_EQ(plan.methods.size(), static_cast<size_t>(s));
  // Feasibility: R_0 first or second.
  AQO_CHECK(plan.sequence[0] == 0 || plan.sequence[1] == 0)
      << "cartesian-product-free star sequences place R_0 first or second";

  BigInt cost =
      FirstJoinCost(inst, plan.sequence[0], plan.sequence[1], plan.methods[0]);
  // Intermediate after the first join.
  BigInt inter = inst.central_tuples;
  if (plan.sequence[0] != 0) {
    inter = inter * inst.match[static_cast<size_t>(plan.sequence[0]) - 1];
  } else {
    inter = inter * inst.match[static_cast<size_t>(plan.sequence[1]) - 1];
  }
  for (size_t j = 2; j < plan.sequence.size(); ++j) {
    int sat = plan.sequence[j];
    AQO_CHECK(sat != 0);
    cost += LaterJoinCost(inst, inter, sat, plan.methods[j - 1]);
    inter = inter * inst.match[static_cast<size_t>(sat) - 1];
  }
  return cost;
}

SqoCpResult SolveSqoCpExact(const SqoCpInstance& inst) {
  int s = inst.num_satellites;
  AQO_CHECK(s >= 1 && s <= 18);
  inst.Validate();
  size_t full = (size_t{1} << s) - 1;

  SqoCpResult result;
  bool have_result = false;

  // Intermediate size for a satellite set: n_0 * prod match.
  std::vector<BigInt> inter(full + 1);
  inter[0] = inst.central_tuples;
  for (size_t mask = 1; mask <= full; ++mask) {
    int j = std::countr_zero(mask);
    inter[mask] =
        inter[mask & (mask - 1)] * inst.match[static_cast<size_t>(j)];
  }

  // One DP per start relation.
  for (int start = 0; start <= s; ++start) {
    std::vector<BigInt> dp(full + 1);
    std::vector<uint8_t> seen(full + 1, 0);
    std::vector<int> from(full + 1, -1);          // previous satellite
    std::vector<uint8_t> used_sm(full + 1, 0);    // method of the last join

    size_t init_mask;
    if (start == 0) {
      init_mask = 0;
      dp[0] = 0;
    } else {
      init_mask = size_t{1} << (start - 1);
      dp[init_mask] = MinOf(
          FirstJoinCost(inst, start, 0, JoinMethod::kNestedLoops),
          FirstJoinCost(inst, start, 0, JoinMethod::kSortMerge));
    }
    seen[init_mask] = 1;

    for (size_t mask = init_mask; mask <= full; ++mask) {
      if (!seen[mask] || (mask & init_mask) != init_mask) continue;
      for (int j = 1; j <= s; ++j) {
        size_t bit = size_t{1} << (j - 1);
        if (mask & bit) continue;
        BigInt nl, sm;
        if (start == 0 && mask == 0) {
          nl = FirstJoinCost(inst, 0, j, JoinMethod::kNestedLoops);
          sm = FirstJoinCost(inst, 0, j, JoinMethod::kSortMerge);
        } else {
          nl = LaterJoinCost(inst, inter[mask], j, JoinMethod::kNestedLoops);
          sm = LaterJoinCost(inst, inter[mask], j, JoinMethod::kSortMerge);
        }
        bool pick_sm = sm < nl;
        BigInt cand = dp[mask] + (pick_sm ? sm : nl);
        size_t next = mask | bit;
        if (!seen[next] || cand < dp[next]) {
          seen[next] = 1;
          dp[next] = std::move(cand);
          from[next] = j;
          used_sm[next] = pick_sm ? 1 : 0;
        }
      }
    }
    if (!seen[full]) continue;
    if (!have_result || dp[full] < result.best_cost) {
      have_result = true;
      result.best_cost = dp[full];
      // Reconstruct the plan.
      SqoCpPlan plan;
      std::vector<int> rev;
      std::vector<JoinMethod> rev_methods;
      size_t mask = full;
      while (mask != init_mask) {
        int j = from[mask];
        AQO_CHECK(j > 0);
        rev.push_back(j);
        rev_methods.push_back(used_sm[mask] ? JoinMethod::kSortMerge
                                            : JoinMethod::kNestedLoops);
        mask &= ~(size_t{1} << (j - 1));
      }
      if (start == 0) {
        plan.sequence.push_back(0);
      } else {
        plan.sequence.push_back(start);
        plan.sequence.push_back(0);
        // Method of the forced first join: recompute the cheaper one.
        BigInt nl = FirstJoinCost(inst, start, 0, JoinMethod::kNestedLoops);
        BigInt sm = FirstJoinCost(inst, start, 0, JoinMethod::kSortMerge);
        plan.methods.push_back(sm < nl ? JoinMethod::kSortMerge
                                       : JoinMethod::kNestedLoops);
      }
      for (size_t i = rev.size(); i-- > 0;) {
        plan.sequence.push_back(rev[i]);
        plan.methods.push_back(rev_methods[i]);
      }
      AQO_CHECK(SqoCpPlanCost(inst, plan) == result.best_cost);
      result.best_plan = std::move(plan);
    }
  }
  AQO_CHECK(have_result);
  result.within_budget = result.best_cost <= inst.budget;
  return result;
}

SqoCpResult SolveSqoCpBrute(const SqoCpInstance& inst) {
  int s = inst.num_satellites;
  AQO_CHECK(s >= 1 && s <= 7);
  inst.Validate();
  SqoCpResult result;
  bool have_result = false;

  // Enumerate feasible relation orders; per join pick the cheaper method
  // (methods never change sizes, so the greedy choice is exact).
  std::vector<int> sats(static_cast<size_t>(s));
  for (int i = 0; i < s; ++i) sats[static_cast<size_t>(i)] = i + 1;
  std::sort(sats.begin(), sats.end());
  do {
    for (int start_case = 0; start_case <= 1; ++start_case) {
      SqoCpPlan plan;
      if (start_case == 0) {
        plan.sequence.push_back(0);
        plan.sequence.insert(plan.sequence.end(), sats.begin(), sats.end());
      } else {
        plan.sequence.push_back(sats[0]);
        plan.sequence.push_back(0);
        plan.sequence.insert(plan.sequence.end(), sats.begin() + 1,
                             sats.end());
      }
      // Greedy per-join methods.
      BigInt cost = 0;
      BigInt inter = inst.central_tuples;
      for (size_t j = 1; j < plan.sequence.size(); ++j) {
        BigInt nl, sm;
        if (j == 1) {
          nl = FirstJoinCost(inst, plan.sequence[0], plan.sequence[1],
                             JoinMethod::kNestedLoops);
          sm = FirstJoinCost(inst, plan.sequence[0], plan.sequence[1],
                             JoinMethod::kSortMerge);
        } else {
          nl = LaterJoinCost(inst, inter, plan.sequence[j],
                             JoinMethod::kNestedLoops);
          sm = LaterJoinCost(inst, inter, plan.sequence[j],
                             JoinMethod::kSortMerge);
        }
        plan.methods.push_back(sm < nl ? JoinMethod::kSortMerge
                                       : JoinMethod::kNestedLoops);
        cost += MinOf(nl, sm);
        int sat = plan.sequence[j] == 0 ? plan.sequence[0] : plan.sequence[j];
        if (plan.sequence[j] != 0 || j == 1) {
          inter = inter * inst.match[static_cast<size_t>(sat) - 1];
        }
      }
      if (!have_result || cost < result.best_cost) {
        have_result = true;
        result.best_cost = cost;
        result.best_plan = std::move(plan);
      }
    }
  } while (std::next_permutation(sats.begin(), sats.end()));
  AQO_CHECK(have_result);
  result.within_budget = result.best_cost <= inst.budget;
  return result;
}

namespace {

// rank(i) < rank(j) <=> (f_i - 1) w_j < (f_j - 1) w_i, exact in BigInt.
// match factors are >= 1 by validation, so both sides are non-negative.
bool NlRankLess(const SqoCpInstance& inst, int i, int j) {
  const BigInt& fi = inst.match[static_cast<size_t>(i)];
  const BigInt& fj = inst.match[static_cast<size_t>(j)];
  const BigInt& wi = inst.w[static_cast<size_t>(i)];
  const BigInt& wj = inst.w[static_cast<size_t>(j)];
  return (fi - 1) * wj < (fj - 1) * wi;
}

}  // namespace

SqoCpResult SolveSqoNlOnly(const SqoCpInstance& inst) {
  inst.Validate();
  int s = inst.num_satellites;
  SqoCpResult result;
  bool have = false;

  // Satellites after the prefix go in ascending NL rank (ASI-optimal; the
  // star graph imposes no precedence among satellites once R_0 is in). A
  // satellite's rank does not depend on the start, so one sort serves all.
  std::vector<int> ranked;
  for (int i = 1; i <= s; ++i) ranked.push_back(i);
  std::stable_sort(ranked.begin(), ranked.end(), [&inst](int a, int b) {
    return NlRankLess(inst, a - 1, b - 1);
  });

  for (int start = 0; start <= s; ++start) {
    SqoCpPlan plan;
    if (start == 0) {
      plan.sequence.push_back(0);
    } else {
      plan.sequence.push_back(start);
      plan.sequence.push_back(0);
      plan.methods.push_back(JoinMethod::kNestedLoops);
    }
    for (int sat : ranked) {
      if (sat == start) continue;
      plan.sequence.push_back(sat);
      plan.methods.push_back(JoinMethod::kNestedLoops);
    }
    if (start == 0) {
      // The first join's method slot belongs to the first satellite.
      AQO_CHECK_EQ(plan.methods.size(), plan.sequence.size() - 1);
    }
    BigInt cost = SqoCpPlanCost(inst, plan);
    if (!have || cost < result.best_cost) {
      have = true;
      result.best_cost = cost;
      result.best_plan = std::move(plan);
    }
  }
  AQO_CHECK(have);
  result.within_budget = result.best_cost <= inst.budget;
  return result;
}

SppcsToSqoCpResult ReduceSppcsToSqoCp(const SppcsInstance& sppcs) {
  int m = static_cast<int>(sppcs.pairs.size());
  AQO_CHECK(m >= 1);
  BigInt prod_p = 1;
  BigInt sum_c = 0;
  for (const auto& pair : sppcs.pairs) {
    AQO_CHECK(pair.p >= BigInt(2)) << "Appendix B assumes p_i >= 2";
    AQO_CHECK(pair.c >= BigInt(1)) << "Appendix B assumes c_i >= 1";
    prod_p *= pair.p;
    sum_c += pair.c;
  }

  SppcsToSqoCpResult out;
  const int64_t ks = 4;
  BigInt base = BigInt(4 * ks) * prod_p;
  out.j_term = base * base;                 // J = (4 ks prod p)^2
  out.u_term = sum_c + prod_p + 1;          // U
  const BigInt& j = out.j_term;
  BigInt j2 = j * j;
  BigInt n0 = BigInt(5) * j2 * j * out.u_term;  // 5 J^3 U

  SqoCpInstance inst;
  inst.num_satellites = m + 1;
  inst.ks = ks;
  inst.central_tuples = n0;
  inst.central_pages = n0;
  for (int i = 0; i < m; ++i) {
    const auto& pair = sppcs.pairs[static_cast<size_t>(i)];
    BigInt b = n0 * j2 * pair.c;
    inst.pages.push_back(b);
    inst.tuples.push_back(BigInt(m + 1) * b);
    inst.match.push_back(pair.p);
    inst.w.push_back(j * BigInt(ks) * pair.p);
    inst.w0.push_back(n0);
  }
  // Amplifier relation R_{m+1}.
  BigInt b_amp = n0 * j2 * out.u_term;
  inst.pages.push_back(b_amp);
  inst.tuples.push_back(BigInt(m + 1) * b_amp);
  inst.match.push_back(j);
  inst.w.push_back(j2 * BigInt(ks));
  inst.w0.push_back(n0);

  inst.budget = n0 * j2 * BigInt(ks) * (sppcs.l_bound + 1) - 1;
  inst.Validate();
  out.instance = std::move(inst);
  return out;
}

SqoCpPlan SqoCpWitnessPlan(const SppcsToSqoCpResult& reduction,
                           const std::vector<bool>& in_a) {
  int m = reduction.instance.num_satellites - 1;
  AQO_CHECK_EQ(in_a.size(), static_cast<size_t>(m));
  SqoCpPlan plan;
  plan.sequence.push_back(0);
  for (int i = 0; i < m; ++i) {
    if (in_a[static_cast<size_t>(i)]) {
      plan.sequence.push_back(i + 1);
      plan.methods.push_back(JoinMethod::kNestedLoops);
    }
  }
  plan.sequence.push_back(reduction.AmplifierSatellite());
  plan.methods.push_back(JoinMethod::kNestedLoops);
  for (int i = 0; i < m; ++i) {
    if (!in_a[static_cast<size_t>(i)]) {
      plan.sequence.push_back(i + 1);
      plan.methods.push_back(JoinMethod::kSortMerge);
    }
  }
  return plan;
}

}  // namespace aqo
