#include "qo/join_graph.h"

#include <bit>
#include <utility>

#include "util/check.h"

namespace aqo {

JoinGraph::JoinGraph(Graph graph, std::vector<LogDouble> sizes)
    : graph_(std::move(graph)), sizes_(std::move(sizes)) {
  size_t n = static_cast<size_t>(graph_.NumVertices());
  AQO_CHECK_EQ(sizes_.size(), n);
  for (LogDouble t : sizes_) AQO_CHECK(t > LogDouble::Zero());
  sel_.assign(n * n, LogDouble::One());
}

void JoinGraph::SetSelectivity(int i, int j, LogDouble s) {
  AQO_CHECK(graph_.HasEdge(i, j)) << "selectivity on non-edge " << i << "," << j;
  AQO_CHECK(s > LogDouble::Zero() && s <= LogDouble::One());
  sel_[Index(i, j)] = s;
  sel_[Index(j, i)] = s;
}

std::vector<LogDouble> PrefixSizes(const JoinGraph& g,
                                   const JoinSequence& seq) {
  // Hot path (one call per candidate in the naive evaluators): the O(n)
  // permutation check plus its allocation stays debug-only here; release
  // builds validate at the entry points (QonSequenceCost, the evaluators).
  AQO_DCHECK(IsPermutation(seq, g.NumRelations()));
  std::vector<LogDouble> sizes(seq.size() + 1);
  sizes[0] = LogDouble::One();
  for (size_t i = 0; i < seq.size(); ++i) {
    sizes[i + 1] = g.ExtendSize(sizes[i], {seq.data(), i}, seq[i]);
  }
  return sizes;
}

std::vector<LogDouble> SubsetSizes(const JoinGraph& g) {
  size_t full = (size_t{1} << g.NumRelations()) - 1;
  std::vector<LogDouble> sizes(full + 1, LogDouble::One());
  for (size_t mask = 1; mask <= full; ++mask) {
    int j = std::countr_zero(mask);
    size_t rest = mask & (mask - 1);
    LogDouble v = sizes[rest] * g.size(j);
    for (size_t m = rest; m != 0; m &= m - 1) {
      int k = std::countr_zero(m);
      if (g.graph().HasEdge(k, j)) v *= g.selectivity(k, j);
    }
    sizes[mask] = v;
  }
  return sizes;
}

}  // namespace aqo
