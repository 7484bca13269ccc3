#ifndef AQO_TESTS_INSTANCE_ORACLE_H_
#define AQO_TESTS_INSTANCE_ORACLE_H_

// Test-only oracle for the invariants the instance types promise
// (qo/join_graph.h, qo/qon.h, qo/qoh.h). The constructors and setters
// enforce them, so no program code re-checks an instance; the tests and
// the fuzz harnesses run this oracle on what the readers, reductions,
// generators, relabelings and setter sequences build, to show that the
// enforcement holds. It reads only public accessors and is O(n^2).
//
// Invariants:
//   * every size is > 0;
//   * S is symmetric bit for bit, an edge selectivity is in (0, 1], and
//     every other entry (the diagonal included) has the bits of One();
//   * QO_N: t_j * s_kj <= AccessCost(k, j) <= t_j for k != j;
//   * QO_H: the memory budget is finite and > 0, and 0 < eta < 1.

#include <string>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace aqo {

// "" when every invariant holds, else the first violation found.
std::string QonInvariantViolation(const QonInstance& inst);
std::string QohInvariantViolation(const QohInstance& inst);

}  // namespace aqo

#endif  // AQO_TESTS_INSTANCE_ORACLE_H_
