#include "qo/join_sequence.h"

#include "util/check.h"

namespace aqo {

bool IsPermutation(const JoinSequence& seq, int n) {
  if (static_cast<int>(seq.size()) != n) return false;
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int v : seq) {
    if (v < 0 || v >= n || seen[static_cast<size_t>(v)]) return false;
    seen[static_cast<size_t>(v)] = true;
  }
  return true;
}

JoinSequence IdentitySequence(int n) {
  JoinSequence seq(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) seq[static_cast<size_t>(i)] = i;
  return seq;
}

std::vector<int> BackEdgeCounts(const Graph& g, const JoinSequence& seq) {
  AQO_CHECK(IsPermutation(seq, g.NumVertices()));
  int n = g.NumVertices();
  std::vector<int> counts(static_cast<size_t>(n), 0);
  DynamicBitset placed(n);
  for (size_t i = 0; i < seq.size(); ++i) {
    counts[i] = g.Neighbors(seq[i]).AndCount(placed);
    placed.Set(seq[i]);
  }
  return counts;
}

bool HasCartesianProduct(const Graph& g, const JoinSequence& seq) {
  std::vector<int> back = BackEdgeCounts(g, seq);
  for (size_t i = 1; i < back.size(); ++i) {
    if (back[i] == 0) return true;
  }
  return false;
}

}  // namespace aqo
