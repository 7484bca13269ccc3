#include "oracle.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace e2ebench {

namespace {

bool ReadInts(const std::string& line, const std::string& tag,
              std::vector<int>* out) {
  std::istringstream in(line);
  std::string word;
  if (!(in >> word) || word != tag) return false;
  for (long v; in >> v;) out->push_back(static_cast<int>(v));
  return in.eof();
}

}  // namespace

bool ParseServedPlan(const std::string& response, ServedPlan* out,
                     std::string* why) {
  std::istringstream lines(response);
  std::string head;
  std::getline(lines, head);
  std::istringstream header(head);
  std::string verb;
  header >> verb >> out->id >> out->family;
  if (verb != "ok") {
    *why = "not an ok response: " + head;
    return false;
  }
  for (std::string token; header >> token;) {
    size_t eq = token.find('=');
    std::string key = token.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
    if (key == "feasible") out->feasible = value == "1";
    if (key == "status") out->status = value;
    if (key == "cost_log2") out->cost_text = value;
    if (key == "degraded") out->degraded = value == "1";
  }
  std::string line;
  if (out->feasible) {
    if (!std::getline(lines, line) || !ReadInts(line, "seq", &out->seq)) {
      *why = "missing or malformed seq line";
      return false;
    }
    if (std::getline(lines, line)) {
      out->has_pipelines = true;
      if (!ReadInts(line, "pipelines", &out->pipelines)) {
        *why = "malformed pipelines line";
        return false;
      }
    }
  }
  return true;
}

bool CheckResponse(const Request& request, const std::string& response,
                   std::string* why, bool* inexact) {
  ServedPlan plan;
  if (!ParseServedPlan(response, &plan, why)) return false;
  const InstanceSpec& spec = request.spec;
  if (plan.id != std::to_string(request.id)) {
    *why = "response id " + plan.id + " for request " +
           std::to_string(request.id);
    return false;
  }
  if (plan.family != (spec.qoh ? "qoh" : "qon")) {
    *why = "wrong family " + plan.family;
    return false;
  }
  if (!plan.feasible || plan.status != "complete" || plan.degraded) {
    *why = "plan not feasible and complete (status=" + plan.status + ")";
    return false;
  }
  int n = spec.n;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  bool permutation = static_cast<int>(plan.seq.size()) == n;
  for (int v : plan.seq) {
    if (!permutation || v < 0 || v >= n || seen[static_cast<size_t>(v)]) {
      permutation = false;
      break;
    }
    seen[static_cast<size_t>(v)] = 1;
  }
  if (!permutation) {
    *why = "seq is not a permutation of 0.." + std::to_string(n - 1);
    return false;
  }
  char* end = nullptr;
  double served = std::strtod(plan.cost_text.c_str(), &end);
  if (plan.cost_text.empty() || *end != '\0') {
    *why = "unreadable cost_log2 '" + plan.cost_text + "'";
    return false;
  }
  double repriced = 0.0;
  if (!spec.qoh) {
    repriced = aqo::QonSequenceCost(BuildQon(spec), plan.seq).Log2();
  } else {
    // A decomposition of the n-1 joins: starts at join 1, increasing.
    const std::vector<int>& starts = plan.pipelines;
    bool valid = plan.has_pipelines && !starts.empty() && starts[0] == 1;
    for (size_t f = 0; valid && f < starts.size(); ++f) {
      valid = starts[f] <= n - 1 && (f == 0 || starts[f - 1] < starts[f]);
    }
    if (!valid) {
      *why = "invalid pipeline decomposition";
      return false;
    }
    aqo::PipelineDecomposition decomposition;
    decomposition.starts = starts;
    aqo::PipelineCostResult cost =
        aqo::DecompositionCost(BuildQoh(spec), plan.seq, decomposition);
    if (!cost.feasible) {
      *why = "served decomposition is infeasible";
      return false;
    }
    repriced = cost.cost.Log2();
  }
  if (std::bit_cast<uint64_t>(repriced) == std::bit_cast<uint64_t>(served)) {
    return true;
  }
  // The subset DP reports the cost its recurrence folded over relation
  // sets, not the naive left-to-right fold of the returned sequence, so
  // the two can differ in the last bits. The repository's own tests hold
  // dp to a 1e-9 relative log2 tolerance (tests/property_test.cc); the
  // oracle does the same and counts each such plan as inexact.
  if (request.optimizer == "dp" &&
      aqo::LogDouble::FromLog2(repriced).ApproxEquals(
          aqo::LogDouble::FromLog2(served), 1e-9)) {
    if (inexact != nullptr) *inexact = true;
    return true;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "cost_log2 %.17g, re-priced %.17g", served,
                repriced);
  *why = buf;
  return false;
}

std::string PlanFields(const std::string& response) {
  ServedPlan plan;
  std::string why;
  if (!ParseServedPlan(response, &plan, &why)) return "unparsable";
  std::ostringstream out;
  out << plan.cost_text << "|";
  for (int v : plan.seq) out << v << " ";
  out << "|";
  for (int v : plan.pipelines) out << v << " ";
  return out.str();
}

}  // namespace e2ebench
