#include "qo/qon.h"

namespace aqo {

QonInstance::QonInstance(Graph graph, std::vector<LogDouble> sizes)
    : JoinGraph(std::move(graph), std::move(sizes)) {
  int n = NumRelations();
  w_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), LogDouble::One());
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      if (k != j) ResetDefaultAccessCost(k, j);
    }
  }
}

void QonInstance::SetSelectivity(int i, int j, LogDouble s) {
  JoinGraph::SetSelectivity(i, j, s);
  ResetDefaultAccessCost(i, j);
  ResetDefaultAccessCost(j, i);
}

void QonInstance::ResetDefaultAccessCost(int k, int j) {
  // Default: perfect index when a predicate exists (expected matching
  // tuples, the lower bound), full scan otherwise.
  w_[Index(k, j)] = size(j) * selectivity(k, j);
}

void QonInstance::SetAccessCost(int k, int j, LogDouble w) {
  AQO_CHECK(k != j);
  LogDouble lo = size(j) * selectivity(k, j);
  LogDouble hi = size(j);
  AQO_CHECK(lo <= w && w <= hi)
      << "access cost out of [t_j s, t_j]: w=" << w << " lo=" << lo
      << " hi=" << hi;
  w_[Index(k, j)] = w;
}

std::vector<LogDouble> QonJoinCosts(const QonInstance& inst,
                                    const JoinSequence& seq) {
  std::vector<LogDouble> costs;
  // n <= 1 has no joins; guarded explicitly because seq.size() - 1 below
  // underflows to SIZE_MAX for an empty sequence.
  if (seq.size() <= 1) return costs;
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  costs.reserve(seq.size() - 1);
  for (size_t i = 1; i < seq.size(); ++i) {
    int next = seq[i];
    LogDouble min_w = inst.AccessCost(seq[0], next);
    for (size_t j = 1; j < i; ++j) {
      min_w = MinOf(min_w, inst.AccessCost(seq[j], next));
    }
    costs.push_back(prefix[i] * min_w);
  }
  return costs;
}

LogDouble QonSequenceCost(const QonInstance& inst, const JoinSequence& seq) {
  AQO_CHECK(IsPermutation(seq, inst.NumRelations()));
  LogDouble total = LogDouble::Zero();
  for (LogDouble h : QonJoinCosts(inst, seq)) total += h;
  return total;
}

}  // namespace aqo
