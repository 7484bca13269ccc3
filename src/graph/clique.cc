#include "graph/clique.h"

#include <algorithm>

#include "util/check.h"

namespace aqo {

namespace {

// Tomita-style MCQ: expand candidates in reverse greedy-coloring order and
// prune with the color bound.
class CliqueSearch {
 public:
  explicit CliqueSearch(const Graph& g) : g_(g) {}

  MaxCliqueResult Run() {
    DynamicBitset all(g_.NumVertices());
    all.SetAll();
    current_.clear();
    Expand(all);
    MaxCliqueResult result;
    result.clique = best_;
    std::sort(result.clique.begin(), result.clique.end());
    result.nodes_explored = nodes_;
    return result;
  }

 private:
  void Expand(const DynamicBitset& candidates) {
    ++nodes_;

    // Greedy coloring of the candidate set; vertices of color class c can
    // contribute at most c vertices to any clique inside `candidates`.
    std::vector<int> order;
    std::vector<int> color_bound;
    DynamicBitset uncolored = candidates;
    int color = 0;
    while (uncolored.Any()) {
      ++color;
      DynamicBitset available = uncolored;
      while (available.Any()) {
        int v = available.FindFirst();
        available.Reset(v);
        uncolored.Reset(v);
        // Neighbors of v cannot share its color class.
        DynamicBitset blocked = g_.Neighbors(v);
        // available &= ~blocked, word-wise via XOR trick: keep non-neighbors.
        DynamicBitset keep = available;
        keep &= blocked;
        available ^= keep;
        order.push_back(v);
        color_bound.push_back(color);
      }
    }

    DynamicBitset remaining = candidates;
    for (size_t i = order.size(); i-- > 0;) {
      if (static_cast<int>(current_.size()) + color_bound[i] <=
          static_cast<int>(best_.size())) {
        return;  // color bound prunes this and all earlier candidates
      }
      int v = order[i];
      current_.push_back(v);
      if (current_.size() > best_.size()) best_ = current_;
      DynamicBitset next = remaining;
      next &= g_.Neighbors(v);
      if (next.Any()) Expand(next);
      current_.pop_back();
      remaining.Reset(v);
    }
  }

  const Graph& g_;
  uint64_t nodes_ = 0;
  std::vector<int> current_;
  std::vector<int> best_;
};

}  // namespace

MaxCliqueResult MaxClique(const Graph& g) {
  if (g.NumVertices() == 0) return MaxCliqueResult{};
  CliqueSearch search(g);
  MaxCliqueResult result = search.Run();
  AQO_CHECK(g.IsClique(result.clique));
  return result;
}

}  // namespace aqo
