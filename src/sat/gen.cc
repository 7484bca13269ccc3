#include "sat/gen.h"

#include <cstdlib>
#include <vector>

#include "util/check.h"

namespace aqo {

CnfFormula RandomThreeSat(int num_vars, int num_clauses, Rng* rng) {
  AQO_CHECK(num_vars >= 3);
  CnfFormula f(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> vars = rng->SampleWithoutReplacement(num_vars, 3);
    Clause clause;
    for (int v : vars) {
      Lit l = v + 1;
      clause.push_back(rng->Bernoulli(0.5) ? l : -l);
    }
    f.AddClause(std::move(clause));
  }
  return f;
}

CnfFormula PlantedSatisfiableThreeSat(int num_vars, int num_clauses, Rng* rng,
                                      Assignment* hidden) {
  AQO_CHECK(num_vars >= 3);
  Assignment a(static_cast<size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) a[static_cast<size_t>(v)] = rng->Bernoulli(0.5);

  CnfFormula f(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> vars = rng->SampleWithoutReplacement(num_vars, 3);
    Clause clause;
    bool satisfied = false;
    for (int v : vars) {
      bool polarity = rng->Bernoulli(0.5);
      if (polarity == a[static_cast<size_t>(v)]) satisfied = true;
      clause.push_back(polarity ? v + 1 : -(v + 1));
    }
    if (!satisfied) {
      // Force one literal to agree with the hidden assignment.
      size_t i = static_cast<size_t>(rng->UniformInt(0, 2));
      int v = vars[i];
      clause[i] = a[static_cast<size_t>(v)] ? v + 1 : -(v + 1);
    }
    f.AddClause(std::move(clause));
  }
  AQO_CHECK(f.IsSatisfiedBy(a));
  if (hidden != nullptr) *hidden = std::move(a);
  return f;
}

CnfFormula BoundOccurrences(const CnfFormula& formula, int max_occurrence) {
  AQO_CHECK(max_occurrence >= 3);
  std::vector<int> occ = formula.VariableOccurrences();

  // Assign new variable ids: split variables get one copy per occurrence.
  int next_var = 1;
  std::vector<int> first_copy(static_cast<size_t>(formula.num_vars()) + 1, 0);
  std::vector<int> num_copies(static_cast<size_t>(formula.num_vars()) + 1, 0);
  for (int v = 1; v <= formula.num_vars(); ++v) {
    int k = occ[static_cast<size_t>(v - 1)];
    int copies = k > max_occurrence ? k : 1;
    first_copy[static_cast<size_t>(v)] = next_var;
    num_copies[static_cast<size_t>(v)] = copies;
    next_var += copies;
  }

  CnfFormula out(next_var - 1);
  // Rewrite clauses, consuming one copy per occurrence of a split variable.
  std::vector<int> used(static_cast<size_t>(formula.num_vars()) + 1, 0);
  for (const Clause& c : formula.clauses()) {
    Clause rewritten;
    // A clause counts as a single occurrence even if the variable appears
    // twice in it; track which variables were consumed in this clause.
    std::vector<int> consumed_this_clause;
    for (Lit l : c) {
      int v = std::abs(l);
      int copy_index = 0;
      if (num_copies[static_cast<size_t>(v)] > 1) {
        bool already = false;
        for (int seen : consumed_this_clause) already = already || seen == v;
        if (!already) {
          consumed_this_clause.push_back(v);
          ++used[static_cast<size_t>(v)];
        }
        copy_index = used[static_cast<size_t>(v)] - 1;
      }
      int new_var = first_copy[static_cast<size_t>(v)] + copy_index;
      rewritten.push_back(l > 0 ? new_var : -new_var);
    }
    out.AddClause(std::move(rewritten));
  }

  // Equality cycles: (!x_i v x_{i+1}) for i = 1..k (indices mod k) force all
  // copies of a split variable to take the same value.
  for (int v = 1; v <= formula.num_vars(); ++v) {
    int k = num_copies[static_cast<size_t>(v)];
    if (k <= 1) continue;
    AQO_CHECK_EQ(used[static_cast<size_t>(v)], k);
    int base = first_copy[static_cast<size_t>(v)];
    for (int i = 0; i < k; ++i) {
      int from = base + i;
      int to = base + (i + 1) % k;
      out.AddClause({-from, to});
    }
  }

  AQO_CHECK(out.MaxVariableOccurrence() <= max_occurrence);
  AQO_CHECK(out.IsThreeCnf() || !formula.IsThreeCnf());
  return out;
}

}  // namespace aqo
