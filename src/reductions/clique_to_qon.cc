#include "reductions/clique_to_qon.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace aqo {

double QonGapInstance::PeakPosition() const {
  return (params.c - params.d / 2.0) * static_cast<double>(n);
}

LogDouble QonGapInstance::KBound() const {
  double p = PeakPosition();
  return w * alpha.Pow(p * (p + 1.0) / 2.0 + 1.0);
}

LogDouble QonGapInstance::NoSideBound() const {
  return KBound() *
         alpha.Pow(params.d / 2.0 * static_cast<double>(n) - 1.0);
}

LogDouble QonGapInstance::CertifiedLowerBound(int omega_upper) const {
  AQO_CHECK(omega_upper >= 1);
  double p = PeakPosition();
  LogDouble best = LogDouble::Zero();
  for (int i = 1; i <= n - 1; ++i) {
    double di = static_cast<double>(i);
    double dmax = di * (di - 1.0) / 2.0 - di +
                  static_cast<double>(std::min(omega_upper, i));
    dmax = std::max(dmax, 0.0);
    // Dmax can never exceed the complete graph on i vertices.
    dmax = std::min(dmax, di * (di - 1.0) / 2.0);
    LogDouble h_floor = w * alpha.Pow(p * di - dmax);
    best = MaxOf(best, h_floor);
  }
  return best;
}

QonGapInstance ReduceCliqueToQon(const Graph& g, const QonGapParams& params) {
  obs::TraceSpan span("reduce.clique_to_qon", "span");
  static obs::Counter& calls =
      obs::Registry::Get().GetCounter("reduce.clique_to_qon.calls");
  static obs::Counter& relations =
      obs::Registry::Get().GetCounter("reduce.clique_to_qon.relations");
  calls.Increment();
  relations.Add(static_cast<uint64_t>(g.NumVertices()));
  AQO_CHECK(params.log2_alpha >= 2.0) << "need alpha >= 4";
  AQO_CHECK(0.0 < params.d && params.d < params.c && params.c <= 1.0);
  int n = g.NumVertices();
  AQO_CHECK(n >= 2);

  QonGapInstance gap;
  gap.params = params;
  gap.n = n;
  gap.alpha = LogDouble::FromLog2(params.log2_alpha);
  double p = (params.c - params.d / 2.0) * static_cast<double>(n);
  gap.t = gap.alpha.Pow(p);
  gap.w = gap.t / gap.alpha;

  std::vector<LogDouble> sizes(static_cast<size_t>(n), gap.t);
  QonInstance inst(g, std::move(sizes));
  LogDouble inv_alpha = LogDouble::One() / gap.alpha;
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, inv_alpha);
    // Defaults already give w = t * (1/alpha) on edges and t on non-edges,
    // exactly the paper's W matrix.
  }
  inst.Validate();
  gap.instance = std::move(inst);
  return gap;
}

JoinSequence CliqueFirstWitnessGreedy(const QonInstance& inst,
                                      const std::vector<int>& clique) {
  const Graph& g = inst.graph();
  AQO_CHECK(g.IsClique(clique));
  AQO_CHECK(!clique.empty());
  int n = g.NumVertices();
  JoinSequence seq = clique;
  DynamicBitset placed(n);
  for (int v : clique) placed.Set(v);
  // Intermediate size of the clique prefix.
  LogDouble intermediate = LogDouble::One();
  for (size_t i = 0; i < clique.size(); ++i) {
    LogDouble next = intermediate * inst.size(clique[i]);
    for (size_t j = 0; j < i; ++j) {
      if (g.HasEdge(clique[j], clique[i]))
        next *= inst.selectivity(clique[j], clique[i]);
    }
    intermediate = next;
  }
  while (static_cast<int>(seq.size()) < n) {
    int best = -1;
    LogDouble best_h;
    LogDouble best_next;
    for (int v = 0; v < n; ++v) {
      if (placed.Test(v)) continue;
      LogDouble min_w = inst.size(v);
      for (int k : seq) min_w = MinOf(min_w, inst.AccessCost(k, v));
      LogDouble h = intermediate * min_w;
      LogDouble next = intermediate * inst.size(v);
      for (int k : seq) {
        if (g.HasEdge(k, v)) next *= inst.selectivity(k, v);
      }
      // Rank by the immediate join cost, then by the resulting
      // intermediate size (the quantity that multiplies all later costs).
      bool better = best < 0 || h < best_h ||
                    (h.ApproxEquals(best_h, 1e-9) && next < best_next);
      if (better) {
        best = v;
        best_h = h;
        best_next = next;
      }
    }
    intermediate = best_next;
    seq.push_back(best);
    placed.Set(best);
  }
  AQO_CHECK(IsPermutation(seq, n));
  return seq;
}

JoinSequence CliqueFirstWitness(const Graph& g,
                                const std::vector<int>& clique) {
  AQO_CHECK(g.IsClique(clique)) << "witness vertices are not a clique";
  AQO_CHECK(!clique.empty());
  int n = g.NumVertices();
  JoinSequence seq = clique;
  DynamicBitset placed(n);
  for (int v : clique) placed.Set(v);
  while (static_cast<int>(seq.size()) < n) {
    // Prefer a vertex adjacent to the prefix (avoids cartesian products).
    int pick = -1;
    for (int v = 0; v < n && pick < 0; ++v) {
      if (!placed.Test(v) && g.Neighbors(v).Intersects(placed)) pick = v;
    }
    if (pick < 0) {
      // Disconnected graph: fall back to an arbitrary leftover vertex.
      for (int v = 0; v < n && pick < 0; ++v) {
        if (!placed.Test(v)) pick = v;
      }
    }
    seq.push_back(pick);
    placed.Set(pick);
  }
  AQO_CHECK(IsPermutation(seq, n));
  return seq;
}

}  // namespace aqo
