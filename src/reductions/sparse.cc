#include "reductions/sparse.h"

#include <algorithm>
#include <cmath>

#include "graph/generators.h"
#include "util/check.h"

namespace aqo {

namespace {

int64_t IntPow(int64_t base, int exp) {
  int64_t r = 1;
  for (int i = 0; i < exp; ++i) {
    AQO_CHECK(r <= (int64_t{1} << 40) / base) << "blow-up m = n^k too large";
    r *= base;
  }
  return r;
}

// Builds the auxiliary connected graph G2 and splices it after the
// vertices of `g1`, bridging g1's vertex `bridge_from` to G2's first
// vertex. When the budget exceeds the complete graph on V2, the overflow
// is absorbed by V1-V2 cross edges (they carry the same mild auxiliary
// selectivity, never create cheaper access paths into V1 than the E1
// edges, and only shrink witness intermediates — the gap bounds are
// unaffected). V1-V1 non-edges stay non-edges: the embedded CLIQUE
// structure is untouched. Returns the combined graph on m vertices.
Graph SpliceAuxiliary(const Graph& g1, int m, int bridge_from,
                      int64_t aux_edges, Rng* rng) {
  int n1 = g1.NumVertices();
  int n2 = m - n1;
  AQO_CHECK(n2 >= 1);
  AQO_CHECK(aux_edges >= n2 - 1) << "auxiliary graph cannot be connected";
  int64_t v2_capacity = static_cast<int64_t>(n2) * (n2 - 1) / 2;
  // One cross edge (the bridge) is always present and accounted by the
  // caller; overflow may use the remaining n1*n2 - 1 cross slots.
  int64_t overflow = std::max<int64_t>(0, aux_edges - v2_capacity);
  AQO_CHECK(overflow <= static_cast<int64_t>(n1) * n2 - 1)
      << "edge budget exceeds V2-complete plus all cross edges";
  int64_t within_v2 = aux_edges - overflow;
  Graph g2 = ConnectedWithEdgeBudget(n2, static_cast<int>(within_v2), rng);
  Graph g = DisjointUnion(g1, g2);
  g.AddEdge(bridge_from, n1);
  // Distribute the overflow over cross pairs (excluding the bridge pair).
  if (overflow > 0) {
    std::vector<std::pair<int, int>> cross;
    cross.reserve(static_cast<size_t>(n1) * static_cast<size_t>(n2));
    for (int a = 0; a < n1; ++a) {
      for (int b = n1; b < m; ++b) {
        if (a == bridge_from && b == n1) continue;
        cross.emplace_back(a, b);
      }
    }
    rng->Shuffle(&cross);
    for (int64_t e = 0; e < overflow; ++e) {
      g.AddEdge(cross[static_cast<size_t>(e)].first,
                cross[static_cast<size_t>(e)].second);
    }
  }
  return g;
}

}  // namespace

int64_t SparseEdgeBudget(int64_t m, double tau) {
  AQO_CHECK(0.0 < tau && tau < 1.0);
  return m + static_cast<int64_t>(
                 std::ceil(std::pow(static_cast<double>(m), tau)));
}

int64_t DenseEdgeBudget(int64_t m, double tau) {
  AQO_CHECK(0.0 < tau && tau < 1.0);
  return m * (m - 1) / 2 -
         static_cast<int64_t>(
             std::ceil(std::pow(static_cast<double>(m), tau)));
}

LogDouble SparseQonGapInstance::KBound() const {
  double p = (params.base.c - params.base.d / 2.0) * static_cast<double>(n);
  LogDouble w = t / alpha;
  return w * alpha.Pow(p * (p + 1.0) / 2.0 + 1.0);
}

LogDouble SparseQonGapInstance::NoSideBound() const {
  return KBound() *
         alpha.Pow(params.base.d / 2.0 * static_cast<double>(n) - 1.0);
}

LogDouble SparseQonGapInstance::AuxiliarySlack() const {
  // Product of all auxiliary relation sizes: u^{m-n} = beta^{n (m-n)}.
  return u.Pow(static_cast<double>(m - n));
}

SparseQonGapInstance ReduceCliqueToSparseQon(const Graph& g1,
                                             const SparseQonParams& params,
                                             Rng* rng) {
  int n = g1.NumVertices();
  AQO_CHECK(n >= 2);
  AQO_CHECK(params.k >= 2);
  AQO_CHECK(params.base.log2_alpha >= 2.0);
  AQO_CHECK(params.log2_beta >= 1.0);
  int64_t m64 = IntPow(n, params.k);
  AQO_CHECK(m64 <= 20000) << "query graph too large to materialize";
  int m = static_cast<int>(m64);

  int64_t aux_edges = params.edge_budget - g1.NumEdges() - 1;
  Graph q = SpliceAuxiliary(g1, m, /*bridge_from=*/0, aux_edges, rng);
  AQO_CHECK_EQ(static_cast<int64_t>(q.NumEdges()), params.edge_budget);

  SparseQonGapInstance gap;
  gap.params = params;
  gap.n = n;
  gap.m = m;
  gap.alpha = LogDouble::FromLog2(params.base.log2_alpha);
  gap.beta = LogDouble::FromLog2(params.log2_beta);
  double p = (params.base.c - params.base.d / 2.0) * static_cast<double>(n);
  gap.t = gap.alpha.Pow(p);
  gap.u = gap.beta.Pow(static_cast<double>(n));

  std::vector<LogDouble> sizes(static_cast<size_t>(m), gap.u);
  for (int v = 0; v < n; ++v) sizes[static_cast<size_t>(v)] = gap.t;
  QonInstance inst(q, std::move(sizes));
  LogDouble inv_alpha = LogDouble::One() / gap.alpha;
  LogDouble inv_beta = LogDouble::One() / gap.beta;
  for (const auto& [a, b] : q.Edges()) {
    // E1 edges (both endpoints in V1) get 1/alpha; everything else —
    // auxiliary edges and the bridge — gets 1/beta.
    inst.SetSelectivity(a, b, (a < n && b < n) ? inv_alpha : inv_beta);
  }
  gap.instance = std::move(inst);
  return gap;
}

JoinSequence SparseQonWitness(const SparseQonGapInstance& gap,
                              const Graph& g1,
                              const std::vector<int>& clique) {
  AQO_CHECK(g1.IsClique(clique));
  // Connectivity-greedy with smallest-index preference: exhausts V1
  // (indices < n) before crossing the bridge into V2.
  return CliqueFirstWitness(gap.instance.graph(), clique);
}

LogDouble SparseQohGapInstance::LBound() const {
  double dn = static_cast<double>(n);
  return t0 * alpha.Pow(dn * dn / 9.0);
}

LogDouble SparseQohGapInstance::GBound(double epsilon) const {
  AQO_CHECK(0.0 < epsilon && epsilon <= 2.0);
  double dn = static_cast<double>(n);
  return LBound() * alpha.Pow(dn * epsilon / 3.0 - 1.0);
}

SparseQohGapInstance ReduceTwoThirdsCliqueToSparseQoh(
    const Graph& g1, const SparseQohParams& params, Rng* rng) {
  int n = g1.NumVertices();
  AQO_CHECK(n >= 9 && n % 3 == 0);
  AQO_CHECK(n <= 52) << "auxiliary relation size 2^n must stay exact";
  AQO_CHECK(params.k >= 2);
  AQO_CHECK(params.base.log2_alpha >= 2.0);
  AQO_CHECK(params.base.log2_alpha * (n - 1) / 2.0 <= 52.0)
      << "t = alpha^{(n-1)/2} must stay exact in double";
  int64_t m64 = IntPow(n, params.k);
  AQO_CHECK(m64 <= 20000) << "query graph too large to materialize";
  int m = static_cast<int>(m64);

  SparseQohGapInstance gap;
  gap.params = params;
  gap.n = n;
  gap.m = m;
  gap.alpha = LogDouble::FromLog2(params.base.log2_alpha);
  gap.t = gap.alpha.Pow((static_cast<double>(n) - 1.0) / 2.0);
  LogDouble nt = LogDouble::FromLinear(static_cast<double>(n)) * gap.t;
  gap.t0 = nt.Pow(params.base.t0_exponent);

  // Core: v0 (relation 0) spoked to V1 (relations 1..n) carrying g1's
  // edges; auxiliary V2 on relations n+1..m-1 bridged from relation 1.
  Graph core(n + 1);
  for (int v = 0; v < n; ++v) core.AddEdge(0, v + 1);
  for (const auto& [a, b] : g1.Edges()) core.AddEdge(a + 1, b + 1);
  int64_t aux_edges =
      params.edge_budget - g1.NumEdges() - static_cast<int64_t>(n) - 1;
  Graph q = SpliceAuxiliary(core, m, /*bridge_from=*/1, aux_edges, rng);
  AQO_CHECK_EQ(static_cast<int64_t>(q.NumEdges()), params.edge_budget);

  LogDouble aux_size = LogDouble::FromLog2(static_cast<double>(n));  // 2^n
  std::vector<LogDouble> sizes(static_cast<size_t>(m), aux_size);
  sizes[0] = gap.t0;
  for (int v = 1; v <= n; ++v) sizes[static_cast<size_t>(v)] = gap.t;

  double t_linear = gap.t.ToLinear();
  double hjmin_t = std::ceil(std::pow(t_linear, params.base.eta));
  double memory =
      (static_cast<double>(n) / 3.0 - 1.0) * t_linear + 2.0 * hjmin_t;

  QohInstance inst(std::move(q), std::move(sizes), memory, params.base.eta);
  LogDouble inv_alpha = LogDouble::One() / gap.alpha;
  LogDouble spoke = LogDouble::FromLog2(-static_cast<double>(n));  // 2^{-n}
  LogDouble half = LogDouble::FromLinear(0.5);
  for (const auto& [a, b] : inst.graph().Edges()) {
    if (a == 0 || b == 0) {
      inst.SetSelectivity(a, b, spoke);
    } else if (a <= n && b <= n) {
      inst.SetSelectivity(a, b, inv_alpha);
    } else {
      inst.SetSelectivity(a, b, half);
    }
  }
  AQO_CHECK(inst.HashJoinMinMemory(gap.t0) > LogDouble::FromLinear(memory));
  gap.instance = std::move(inst);
  return gap;
}

QohWitnessPlan SparseQohWitness(const SparseQohGapInstance& gap,
                                const Graph& g1,
                                const std::vector<int>& clique) {
  int n = gap.n;
  int m = gap.m;
  int third = n / 3;
  AQO_CHECK_EQ(static_cast<int>(clique.size()), 2 * third);
  AQO_CHECK(g1.IsClique(clique));

  QohWitnessPlan plan;
  plan.sequence.push_back(0);
  DynamicBitset used(m);
  used.Set(0);
  for (int v : clique) {
    plan.sequence.push_back(gap.RelationOf(v));
    used.Set(gap.RelationOf(v));
  }
  for (int v = 1; v <= n; ++v) {
    if (!used.Test(v)) {
      plan.sequence.push_back(v);
      used.Set(v);
    }
  }
  // V2 in a connected order (BFS from the bridge endpoint).
  const Graph& q = gap.instance.graph();
  std::vector<int> frontier = {n + 1};
  DynamicBitset seen(m);
  seen.Set(n + 1);
  for (size_t head = 0; head < frontier.size(); ++head) {
    int v = frontier[head];
    plan.sequence.push_back(v);
    q.Neighbors(v).ForEachSetBit([&](int w) {
      if (w > n && !seen.Test(w)) {
        seen.Set(w);
        frontier.push_back(w);
      }
    });
  }
  AQO_CHECK(IsPermutation(plan.sequence, m));

  // Lemma 12's five pipelines over joins 1..n, then V2 joins in chunks
  // whose hash tables (2^n pages each) fit fully in memory.
  plan.decomposition.starts = {1, 2, third + 1, 2 * third + 1, n};
  double aux_pages = std::exp2(static_cast<double>(n));
  int chunk = std::max(
      1, static_cast<int>(gap.instance.memory() / aux_pages));
  for (int j = n + 1; j <= m - 1; j += chunk) {
    plan.decomposition.starts.push_back(j);
  }
  return plan;
}

}  // namespace aqo
