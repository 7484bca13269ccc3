#ifndef AQO_QO_JOIN_SEQUENCE_H_
#define AQO_QO_JOIN_SEQUENCE_H_

// A join sequence is a permutation of the relation indices {0, ..., n-1}
// (the paper's Z = v_{z1} ... v_{zn}): a left-deep plan that joins the
// running intermediate with one new relation per step.

#include <vector>

#include "graph/graph.h"

namespace aqo {

using JoinSequence = std::vector<int>;

// True when `seq` is a permutation of {0, ..., n-1}.
bool IsPermutation(const JoinSequence& seq, int n);

// {0, 1, ..., n-1}.
JoinSequence IdentitySequence(int n);

// Number of back-edges B_i of the vertex at (1-based paper) position i+1:
// edges from seq[i] to vertices at earlier positions. Entry 0 is 0 by
// convention.
std::vector<int> BackEdgeCounts(const Graph& g, const JoinSequence& seq);

// True when some join other than the first is a cartesian product, i.e.
// seq[i] (i >= 1) has no edge into {seq[0..i-1]}.
bool HasCartesianProduct(const Graph& g, const JoinSequence& seq);

}  // namespace aqo

#endif  // AQO_QO_JOIN_SEQUENCE_H_
