#include "qo/ikkbz.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "util/check.h"

namespace aqo {

namespace {

// A module is a maximal merged run of relations that must stay contiguous.
// Appending a module after intermediate size N contributes N * C to the
// cost and scales the intermediate by T.
struct Module {
  std::vector<int> rels;
  LogDouble cost;   // C
  LogDouble scale;  // T
};

// rank(M) = (T - 1) / C, compared without materializing the (possibly
// negative, possibly astronomically large) value:
// rank(a) < rank(b)  <=>  (T_a - 1) * C_b < (T_b - 1) * C_a,
// valid because C > 0.
bool RankLess(const Module& a, const Module& b) {
  int sign_a = a.scale > LogDouble::One() ? 1
               : a.scale == LogDouble::One() ? 0
                                             : -1;
  int sign_b = b.scale > LogDouble::One() ? 1
               : b.scale == LogDouble::One() ? 0
                                             : -1;
  if (sign_a != sign_b) return sign_a < sign_b;
  if (sign_a == 0) return false;  // both ranks are exactly 0
  LogDouble mag_a = sign_a > 0 ? a.scale - LogDouble::One()
                               : LogDouble::One() - a.scale;
  LogDouble mag_b = sign_b > 0 ? b.scale - LogDouble::One()
                               : LogDouble::One() - b.scale;
  LogDouble lhs = mag_a * b.cost;
  LogDouble rhs = mag_b * a.cost;
  return sign_a > 0 ? lhs < rhs : lhs > rhs;
}

Module Merge(const Module& a, const Module& b) {
  static obs::Counter& merges =
      obs::Registry::Get().GetCounter("qon.ikkbz.module_merges");
  merges.Increment();
  Module m;
  m.rels = a.rels;
  m.rels.insert(m.rels.end(), b.rels.begin(), b.rels.end());
  m.cost = a.cost + a.scale * b.cost;
  m.scale = a.scale * b.scale;
  return m;
}

using Chain = std::vector<Module>;

// Merges two rank-sorted chains into one rank-sorted chain.
Chain MergeChains(const Chain& x, const Chain& y) {
  Chain out;
  out.reserve(x.size() + y.size());
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (RankLess(y[j], x[i])) {
      out.push_back(y[j++]);
    } else {
      out.push_back(x[i++]);
    }
  }
  for (; i < x.size(); ++i) out.push_back(x[i]);
  for (; j < y.size(); ++j) out.push_back(y[j]);
  return out;
}

// Restores the invariant that ranks are non-decreasing along the chain by
// merging out-of-order prefixes (normalization). `head` must precede the
// chain; violations can only occur at the boundary and cascade.
Chain Normalize(Module head, Chain tail) {
  Chain out;
  out.push_back(std::move(head));
  for (Module& m : tail) {
    out.push_back(std::move(m));
    // Merge backwards while the predecessor outranks its successor.
    while (out.size() >= 2 &&
           RankLess(out[out.size() - 1], out[out.size() - 2])) {
      Module merged = Merge(out[out.size() - 2], out[out.size() - 1]);
      out.pop_back();
      out.pop_back();
      out.push_back(std::move(merged));
    }
  }
  return out;
}

class IkkbzSolver {
 public:
  IkkbzSolver(const QonInstance& inst, const Budget& budget)
      : inst_(inst), guard_(budget) {}

  OptimizerResult Solve() {
    static obs::Counter& roots =
        obs::Registry::Get().GetCounter("qon.ikkbz.roots");
    int n = inst_.NumRelations();
    OptimizerResult result;
    QonCostEvaluator evaluator(inst_);
    for (int root = 0; root < n; ++root) {
      // Between roots only — the first root always completes, so a
      // cut-short run still returns a full feasible sequence.
      if (guard_.ShouldStop(result.evaluations)) break;
      roots.Increment();
      JoinSequence seq = SolveForRoot(root);
      LogDouble cost = evaluator.Cost(seq);
      ++result.evaluations;
      if (!result.feasible || cost < result.cost) {
        result.feasible = true;
        result.cost = cost;
        result.sequence = std::move(seq);
      }
    }
    result.status = guard_.status();
    return result;
  }

 private:
  // Linearizes the subtree rooted at `v` (with parent `parent`; -1 for the
  // root) into a rank-sorted chain. For non-roots the chain starts with v's
  // own module and is normalized.
  Chain Linearize(int v, int parent) {
    Chain merged;
    inst_.graph().Neighbors(v).ForEachSetBit([&](int c) {
      if (c == parent) return;
      Chain child = Linearize(c, v);
      merged = MergeChains(merged, child);
    });
    if (parent < 0) return merged;
    Module self;
    self.rels = {v};
    self.cost = inst_.AccessCost(parent, v);
    self.scale = inst_.size(v) * inst_.selectivity(parent, v);
    return Normalize(std::move(self), std::move(merged));
  }

  JoinSequence SolveForRoot(int root) {
    Chain chain = Linearize(root, -1);
    JoinSequence seq = {root};
    for (const Module& m : chain) {
      seq.insert(seq.end(), m.rels.begin(), m.rels.end());
    }
    AQO_CHECK(IsPermutation(seq, inst_.NumRelations()));
    AQO_CHECK(!HasCartesianProduct(inst_.graph(), seq));
    return seq;
  }

  const QonInstance& inst_;
  RunGuard guard_;
};

}  // namespace

bool IsTreeQueryGraph(const Graph& g) {
  return g.NumVertices() >= 1 && g.NumEdges() == g.NumVertices() - 1 &&
         g.IsConnected();
}

OptimizerResult IkkbzOptimizer(const QonInstance& inst, const Budget& budget) {
  AQO_CHECK(IsTreeQueryGraph(inst.graph())) << "IK/KBZ requires a tree query graph";
  AQO_CHECK(inst.NumRelations() >= 2);
  IkkbzSolver solver(inst, budget);
  return solver.Solve();
}

}  // namespace aqo
