#ifndef AQO_E2EBENCH_ORACLE_H_
#define AQO_E2EBENCH_ORACLE_H_

// Output oracle for served plans. It never trusts the optimizer under
// test: the plan must be a permutation of the request's relations, and
// re-priced with the naive cost functions (QonSequenceCost, or
// DecompositionCost with the response's pipelines) it must cost exactly
// the response's cost_log2, bit for bit (%.17g round-trips). The one
// exception is `dp`, whose cost comes from its subset recurrence: it must
// agree within the 1e-9 relative log2 tolerance the repository's own
// tests apply to it, and a plan that agrees only that way is reported as
// inexact.

#include <string>
#include <vector>

#include "stream.h"

namespace e2ebench {

struct ServedPlan {
  std::string id;
  std::string family;
  bool feasible = false;
  bool degraded = false;
  std::string status;
  std::string cost_text;
  std::vector<int> seq;
  std::vector<int> pipelines;
  bool has_pipelines = false;
};

// Parses an `ok <id> <family> ...` response; false (with a reason) for
// anything else, including `err` responses.
bool ParseServedPlan(const std::string& response, ServedPlan* out,
                     std::string* why);

// True when `response` is a correct answer to `request`; sets *inexact
// (when given) for a dp plan whose cost matched only within tolerance.
bool CheckResponse(const Request& request, const std::string& response,
                   std::string* why, bool* inexact = nullptr);

// The fields replay parity compares: cost_log2, seq and pipelines.
std::string PlanFields(const std::string& response);

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_ORACLE_H_
