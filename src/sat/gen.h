#ifndef AQO_SAT_GEN_H_
#define AQO_SAT_GEN_H_

// 3SAT instance generators and the occurrence-bounding transform.
//
// The paper's pipeline starts from 3SAT(13) (Section 3): 3CNF with every
// variable in at most 13 clauses. The PCP machinery that produces the gap
// version of 3SAT(13) (Theorem 1) is not an implementable artifact; these
// generators produce the YES side (planted satisfiable) and candidate NO
// side (random over-constrained formulas, certified by the DPLL/MaxSAT
// solvers) that exercise everything downstream of Theorem 1.

#include "sat/cnf.h"
#include "util/random.h"

namespace aqo {

// Uniform random 3SAT: `num_clauses` clauses over `num_vars` variables,
// each with three distinct variables and random polarities.
CnfFormula RandomThreeSat(int num_vars, int num_clauses, Rng* rng);

// Random 3SAT guaranteed satisfiable: a hidden assignment is sampled and
// every generated clause is forced to contain at least one literal it
// satisfies. The hidden assignment is returned through `hidden` (optional).
CnfFormula PlantedSatisfiableThreeSat(int num_vars, int num_clauses, Rng* rng,
                                      Assignment* hidden = nullptr);

// Equisatisfiable transform bounding variable occurrences by
// `max_occurrence` (>= 3): each over-occurring variable x is split into
// copies x_1..x_k, one per occurrence, chained by implication clauses
// (!x_i v x_{i+1}) forming a cycle, which forces all copies equal.
// The result of bounding to 13 is a 3SAT(13) instance.
CnfFormula BoundOccurrences(const CnfFormula& formula, int max_occurrence = 13);

}  // namespace aqo

#endif  // AQO_SAT_GEN_H_
