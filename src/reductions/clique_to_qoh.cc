#include "reductions/clique_to_qoh.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace aqo {

LogDouble QohGapInstance::LBound() const {
  double dn = static_cast<double>(n);
  return t0 * alpha.Pow(dn * dn / 9.0);
}

LogDouble QohGapInstance::GBound(double epsilon) const {
  AQO_CHECK(0.0 < epsilon && epsilon <= 2.0);
  double dn = static_cast<double>(n);
  return LBound() * alpha.Pow(dn * epsilon / 3.0 - 1.0);
}

QohGapInstance ReduceTwoThirdsCliqueToQoh(const Graph& g,
                                          const QohGapParams& params) {
  obs::TraceSpan span("reduce.clique_to_qoh", "span");
  static obs::Counter& calls =
      obs::Registry::Get().GetCounter("reduce.clique_to_qoh.calls");
  static obs::Counter& relations =
      obs::Registry::Get().GetCounter("reduce.clique_to_qoh.relations");
  calls.Increment();
  relations.Add(static_cast<uint64_t>(g.NumVertices()) + 1);  // + sentinel R_0
  int n = g.NumVertices();
  AQO_CHECK(n >= 9 && n % 3 == 0) << "f_H needs n >= 9 divisible by 3";
  AQO_CHECK(params.log2_alpha >= 2.0) << "need alpha >= 4";
  AQO_CHECK(params.log2_alpha * (n - 1) / 2.0 <= 52.0)
      << "t = alpha^{(n-1)/2} must stay exact in double; lower alpha or n";
  AQO_CHECK(params.t0_exponent * params.eta > 1.0)
      << "t0 must satisfy hjmin(t0) > M";

  QohGapInstance gap;
  gap.params = params;
  gap.n = n;
  gap.alpha = LogDouble::FromLog2(params.log2_alpha);
  gap.t = gap.alpha.Pow((static_cast<double>(n) - 1.0) / 2.0);
  LogDouble nt = LogDouble::FromLinear(static_cast<double>(n)) * gap.t;
  gap.t0 = nt.Pow(params.t0_exponent);

  // Query graph: relation 0 is R_0, joined to every source vertex; source
  // vertex v becomes relation v + 1.
  Graph q(n + 1);
  for (int v = 0; v < n; ++v) q.AddEdge(0, v + 1);
  for (const auto& [u, v] : g.Edges()) q.AddEdge(u + 1, v + 1);

  std::vector<LogDouble> sizes(static_cast<size_t>(n) + 1, gap.t);
  sizes[0] = gap.t0;

  double t_linear = gap.t.ToLinear();
  double hjmin_t = std::ceil(std::pow(t_linear, params.eta));
  double memory =
      (static_cast<double>(n) / 3.0 - 1.0) * t_linear + 2.0 * hjmin_t;

  QohInstance inst(std::move(q), std::move(sizes), memory, params.eta);
  LogDouble inv_alpha = LogDouble::One() / gap.alpha;
  LogDouble half = LogDouble::FromLinear(0.5);
  for (int v = 0; v < n; ++v) inst.SetSelectivity(0, v + 1, half);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u + 1, v + 1, inv_alpha);
  }
  inst.Validate();

  // The construction's point: R_0 can never be hashed.
  AQO_CHECK(inst.HashJoinMinMemory(gap.t0) > LogDouble::FromLinear(memory))
      << "hjmin(t0) must exceed M";

  gap.instance = std::move(inst);
  return gap;
}

QohWitnessPlan QohYesWitness(const QohGapInstance& gap,
                             const std::vector<int>& clique_in_source) {
  int n = gap.n;
  int third = n / 3;
  AQO_CHECK_EQ(static_cast<int>(clique_in_source.size()), 2 * third)
      << "Lemma 12 witness needs a clique of exactly 2n/3 source vertices";

  QohWitnessPlan plan;
  plan.sequence.push_back(0);  // R_0 first (forced)
  DynamicBitset used(n);
  for (int v : clique_in_source) {
    plan.sequence.push_back(gap.RelationOf(v));
    used.Set(v);
  }
  for (int v = 0; v < n; ++v) {
    if (!used.Test(v)) plan.sequence.push_back(gap.RelationOf(v));
  }
  AQO_CHECK(IsPermutation(plan.sequence, n + 1));

  // Pipelines P(1,1), P(2, n/3), P(n/3+1, 2n/3), P(2n/3+1, n-1), P(n, n)
  // over the n joins of the sequence.
  plan.decomposition.starts = {1, 2, third + 1, 2 * third + 1, n};
  return plan;
}

}  // namespace aqo
