#include "io/serve_request.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "io/serialization.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"

namespace aqo {
namespace {

// What `std::istream >> std::string` skips in the C locale.
constexpr std::string_view kSpace = " \t\n\v\f\r";

// Pops the next whitespace-separated token off `*text`; "" at the end.
std::string_view NextToken(std::string_view* text) {
  size_t start = std::min(text->size(), text->find_first_not_of(kSpace));
  size_t end = std::min(text->size(), text->find_first_of(kSpace, start));
  std::string_view token = text->substr(start, end - start);
  text->remove_prefix(end);
  return token;
}

// Formats a double with enough digits to round-trip, so equal bits print
// equal bytes (the warm/cold differential depends on this).
std::string FormatG17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// What differs between the QO_N and QO_H requests; the flow itself is
// shared, in the shape of RunBatch<Traits> in qo/service.cc.
struct QonRequest {
  using Flat = FlatQon;
  static constexpr auto Parse = &ParseFlatQon;
  static constexpr auto Registry = &OptimizerRegistry::Qon;
  static constexpr OptimizerOptions BatchOptions::*kKnobs = &BatchOptions::qon;

  static QonBatchItem Optimize(const FlatQon& flat,
                               const BatchOptions& options) {
    return std::move(OptimizeQonBatch(std::span(&flat, 1), options).front());
  }

  static void WritePipelines(std::ostream&, const OptimizerResult&) {}
};

struct QohRequest {
  using Flat = FlatQoh;
  static constexpr auto Parse = &ParseFlatQoh;
  static constexpr auto Registry = &QohOptimizerRegistry::Get;
  static constexpr QohOptimizerOptions BatchOptions::*kKnobs =
      &BatchOptions::qoh;

  static QohBatchItem Optimize(const FlatQoh& flat,
                               const BatchOptions& options) {
    return std::move(OptimizeQohBatch(std::span(&flat, 1), options).front());
  }

  static void WritePipelines(std::ostream& out,
                             const QohOptimizerResult& result) {
    out << "\npipelines";
    for (int v : result.decomposition.starts) out << " " << v;
  }
};

// One optimize request of `family`: reads `body` into its flat form,
// admits on its n, runs a one-item batch (which builds the canonical
// instance on a miss only) and formats the response. A non-empty
// `optimizer` overrides `options.optimizer`, and `deadline_ms` the budget
// deadline, for this request only.
template <typename Family>
std::string ServeFamily(std::string_view id, std::string_view family,
                        std::optional<double> deadline_ms,
                        std::string_view optimizer, std::string_view body,
                        const BatchOptions& defaults, LoadGovernor* governor) {
  static obs::Histogram& parse_us =
      obs::Registry::Get().GetHistogram("qo.serve.parse_us");
  std::ostringstream out;
  auto parsed = [&] {
    obs::TraceSpan slice("serve.parse", "serve");
    obs::ScopedLatencyTimer timer(parse_us);
    return Family::Parse(body);
  }();
  if (!parsed.ok()) {
    out << "err " << id << " parse: " << parsed.error;
    return out.str();
  }
  const typename Family::Flat& flat = *parsed.value;
  BatchOptions options = defaults;
  auto& knobs = options.*Family::kKnobs;
  if (deadline_ms) knobs.budget.deadline_ms = *deadline_ms;
  auto admission =
      Admit(Family::Registry(),
            optimizer.empty() ? std::string_view(options.optimizer) : optimizer,
            flat.n, *governor, &knobs);
  const OverloadDecision& d = admission.decision;
  obs::RunLog* log = obs::RunLog::Global();
  if (d.tier != OverloadTier::kAdmit && log != nullptr) {
    // Sheds and degrades each leave a record; admits stay silent.
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "overload_decision";
    record["id"] = id;
    record["tier"] = OverloadTierName(d.tier);
    record["pressure_permille"] = d.pressure_permille;
    record["optimizer"] = admission.requested->name;
    if (d.tier == OverloadTier::kDegrade) {
      record["effective"] = admission.entry->name;
    }
    record["reason"] = d.reason;
    log->Write(record);
  }
  if (!admission.error.empty()) {
    out << "err " << id << " " << admission.error;
    return out.str();
  }
  options.optimizer = admission.entry->name;
  auto item = Family::Optimize(flat, options);
  out << "ok " << id << " " << family
      << " feasible=" << (item.result.feasible ? 1 : 0)
      << " status=" << PlanStatusName(item.result.status)
      << " cost_log2=" << FormatG17(item.result.cost.Log2())
      << " evaluations=" << item.result.evaluations;
  if (d.tier == OverloadTier::kDegrade) out << " degraded=1";
  if (item.result.feasible) {
    out << "\nseq";
    for (int v : item.result.sequence) out << " " << v;
    Family::WritePipelines(out, item.result);
  }
  return out.str();
}

}  // namespace

ServeFrame SplitServeFrame(std::string_view payload) {
  ServeFrame frame;
  size_t eol = payload.find('\n');
  frame.line = payload.substr(0, eol);
  if (eol != std::string_view::npos) frame.body = payload.substr(eol + 1);
  frame.tokens = frame.line;
  frame.verb = NextToken(&frame.tokens);
  frame.id = NextToken(&frame.tokens);
  return frame;
}

std::string ServeRequest(const ServeFrame& request, const BatchOptions& qon,
                         const BatchOptions& qoh, LoadGovernor* governor) {
  std::string_view header = request.tokens;
  std::optional<double> deadline_ms;
  std::string_view optimizer;
  for (std::string_view token = NextToken(&header); !token.empty();
       token = NextToken(&header)) {
    if (token.starts_with("optimizer=")) {
      optimizer = token.substr(10);
      continue;
    }
    std::string number(token);  // strtod reads a terminated string
    char* end = nullptr;
    double ms = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size()) {
      return "err " + std::string(request.id) + " header: '" + number +
             "' is neither optimizer=<name> nor a deadline in ms";
    }
    deadline_ms = ms;
  }

  std::string_view rest = request.body;
  std::string_view family = NextToken(&rest);
  if (family == "qon") {
    return ServeFamily<QonRequest>(request.id, family, deadline_ms,
                                   optimizer, request.body, qon, governor);
  }
  if (family == "qoh") {
    return ServeFamily<QohRequest>(request.id, family, deadline_ms,
                                   optimizer, request.body, qoh, governor);
  }
  return "err " + std::string(request.id) + " parse: unknown instance " +
         "family '" + std::string(family) + "' (expected qon or qoh)";
}

bool StartsWithServeVerb(const std::string& payload) {
  for (std::string_view verb : {"req ", "ping ", "health ", "snapshot "}) {
    if (payload.starts_with(verb)) return true;
  }
  return false;
}

}  // namespace aqo
