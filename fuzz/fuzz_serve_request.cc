// Fuzz target: aqo_serve's request path, entered where the server enters
// it: SplitServeFrame (io/serve_request.h) reads the verb and id, and
// ServeRequest the rest of the header; it parses the body, admits it,
// runs a one-instance batch and encodes the response. An
// input that starts with `req ` is served unchanged, so the header
// grammar is fuzzed too; any other input is a body, served as
// `req f optimizer=<name>` plus the body for every registry name and
// alias of its family. Each request runs with the load governor disarmed
// and again armed with small capacities, through one shared PlanCache. No
// input may abort, and every response is `ok` or `err`.
//
// Every optimizer run is capped at kMaxEvaluations cost evaluations. A
// requested entry with a relation ceiling (exhaustive, dp, cout, bnb grow
// as n!, 2^n or worse) is served up to kMaxBoundedRelations relations,
// and again above its ceiling, where Admit refuses it before any run; one
// without up to kMaxOptimizeRelations, which takes the label step to
// served sizes and QO_N `ii` into its ranked swaps (n >= 28) and their
// integer-regime check. A whole `req ` input names its entry in a header
// this harness does not read, so it is served up to kMaxBoundedRelations.
// Larger bodies are left to fuzz_serialization and serve_parse_golden.
//
// Corpus: examples/fixtures/serve_request holds one body per probe value
// (0, +-1, 52, 53, 1023, 1024, -1074, 1e300, +-1.7e308) in each field a
// request carries a number in: QO_N sizes, selectivities and access costs,
// QO_H sizes, memory and eta; plus random bodies (QO_N n = 12, QO_H n = 9
// and 30), an n = 28 QO_N chain whose log2 values are all integers, and
// two whole requests (req_*.txt) that seed the header grammar.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/serialization.h"
#include "io/serve_request.h"
#include "util/check.h"

namespace {

constexpr uint64_t kMaxEvaluations = 200;
constexpr int kMaxBoundedRelations = 12;
constexpr int kMaxOptimizeRelations = 40;

// Every name a request may carry: the canonical names, then the aliases
// of the listing `aqo_serve --optimizer=help` prints ("aliases: a -> b").
template <typename Registry>
std::vector<std::string> RequestNames(const Registry& registry) {
  std::vector<std::string> names = registry.Names();
  std::string listing = registry.Describe();
  size_t at = listing.find("\naliases:");
  if (at != std::string::npos) {
    at += std::string_view("\naliases:").size();
    std::istringstream line(listing.substr(at, listing.find('\n', at) - at));
    std::string alias, arrow, canonical;
    while (line >> alias >> arrow >> canonical) names.push_back(alias);
  }
  return names;
}

// One small cache for the whole run, so probes hit and inserts evict.
aqo::PlanCache& SharedCache() {
  static aqo::PlanCache cache(
      aqo::PlanCacheOptions{.byte_budget = size_t{1} << 16, .shards = 2});
  return cache;
}

// aqo_serve's defaults for one family, with every run capped.
aqo::BatchOptions Options(const char* optimizer) {
  aqo::BatchOptions options;
  options.optimizer = optimizer;
  options.seed = 1;
  options.cache = &SharedCache();
  options.qon.budget.max_evaluations = kMaxEvaluations;
  options.qoh.budget.max_evaluations = kMaxEvaluations;
  return options;
}

// One input's requests, each through both governors.
class Requests {
 public:
  void Serve(std::string_view payload) {
    static const aqo::BatchOptions qon = Options("dp");
    static const aqo::BatchOptions qoh = Options("greedy");
    aqo::ServeFrame request = aqo::SplitServeFrame(payload);
    // aqo_serve answers a header without an id itself.
    if (request.id.empty()) return;
    for (aqo::LoadGovernor* governor : {&disarmed_, &armed_}) {
      std::string response =
          aqo::ServeRequest(request, qon, qoh, governor);
      AQO_CHECK(response.starts_with("ok ") || response.starts_with("err "))
          << response;
    }
  }

  // `req f optimizer=<name>` plus `body`, for every name whose bound
  // admits n or whose entry refuses n as outside its domain.
  template <typename Registry>
  void ServeEveryName(const Registry& registry, std::string_view body,
                      int n) {
    for (const std::string& name : RequestNames(registry)) {
      const auto* entry = registry.Find(name);
      AQO_CHECK(entry != nullptr) << "unlisted name " << name;
      int bound = entry->max_n == aqo::kNoRelationCeiling
                      ? kMaxOptimizeRelations
                      : kMaxBoundedRelations;
      if (n > bound && n <= entry->max_n) continue;
      Serve("req f optimizer=" + name + "\n" + std::string(body));
    }
  }

 private:
  aqo::LoadGovernor disarmed_;
  aqo::LoadGovernor armed_{aqo::OverloadOptions{
      .queue_capacity = 4.0, .drain_requests = 0.5, .cost_capacity = 1000.0}};
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 12;
  if (size > kMaxInput) size = kMaxInput;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  // A whole request's body follows its header line.
  bool whole = input.starts_with("req ");
  std::string_view body = whole ? aqo::SplitServeFrame(input).body : input;
  aqo::ParseResult<aqo::QonInstance> qon = aqo::ParseQonInstance(body);
  aqo::ParseResult<aqo::QohInstance> qoh = aqo::ParseQohInstance(body);
  int n = qon.ok()   ? qon.value->NumRelations()
          : qoh.ok() ? qoh.value->NumRelations()
                     : 0;
  Requests requests;
  if (whole) {
    if (n <= kMaxBoundedRelations) requests.Serve(input);
  } else if (qon.ok()) {
    requests.ServeEveryName(aqo::OptimizerRegistry::Qon(), body, n);
  } else if (qoh.ok()) {
    requests.ServeEveryName(aqo::QohOptimizerRegistry::Get(), body, n);
  }
  return 0;
}
