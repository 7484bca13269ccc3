// Fuzz target: the request path of tools/aqo_serve.cc. The input is read
// as a QO_N or QO_H instance body (io/serialization.h), and every instance
// that parses goes where a served request goes, for every registry name
// and alias the server lists: Admit (qo/overload.h), once with the load
// governor disarmed and once through a governor armed with small
// capacities, then a one-instance OptimizeQonBatch / OptimizeQohBatch
// (qo/service.h) through one shared PlanCache. No input may abort.
//
// Two bounds keep a run short without skipping any stage. Every optimizer
// run is capped at kMaxEvaluations cost evaluations. An entry with a
// relation ceiling (exhaustive, dp, cout, bnb: they grow as n!, 2^n or
// worse, so an uncapped run at their full domain measures patience, not
// robustness) optimizes up to kMaxBoundedRelations relations; an entry
// without one up to kMaxOptimizeRelations, which takes the label step to
// served sizes and QO_N `ii` past kIiRankedSwapsMinRelations, into its
// ranked swaps and their integer-regime check. Larger instances are
// admitted but not optimized; their parse and admission are covered by
// fuzz_serialization and serve_parse_golden.
//
// Corpus: examples/fixtures/serve_request holds one body per probe value
// (0, +-1, 52, 53, 1023, 1024, -1074, 1e300, +-1.7e308) in each field a
// request carries a number in: QO_N sizes, selectivities and access costs,
// QO_H sizes, memory and eta; plus random bodies (QO_N n = 12, QO_H n = 9
// and 30) and an n = 28 QO_N chain whose log2 values are all integers.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/serialization.h"
#include "qo/overload.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
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
  static aqo::PlanCache cache([] {
    aqo::PlanCacheOptions options;
    options.byte_budget = size_t{1} << 16;
    options.shards = 2;
    return options;
  }());
  return cache;
}

// Capacities a few requests fill, so the armed governor admits, degrades
// and sheds within one input's requests.
aqo::OverloadOptions SmallCapacities() {
  aqo::OverloadOptions options;
  options.queue_capacity = 4.0;
  options.drain_requests = 0.5;
  options.cost_capacity = 1000.0;
  return options;
}

// One request per name, as aqo_serve's ServeFamily runs it: Admit on the
// request's knobs, then the admitted (possibly degraded) entry.
template <typename Registry, typename Knobs, typename Instance,
          typename Optimize>
void ServeEveryName(const Registry& registry, Knobs aqo::BatchOptions::*knobs,
                    const Instance& inst, Optimize optimize) {
  aqo::LoadGovernor disarmed;
  aqo::LoadGovernor armed(SmallCapacities());
  for (const std::string& name : RequestNames(registry)) {
    for (aqo::LoadGovernor* governor : {&disarmed, &armed}) {
      aqo::BatchOptions options;
      options.seed = 1;
      options.cache = &SharedCache();
      Knobs& k = options.*knobs;
      k.budget.max_evaluations = kMaxEvaluations;
      auto admission =
          aqo::Admit(registry, name, inst.NumRelations(), *governor, &k);
      AQO_CHECK(admission.requested != nullptr) << "unlisted name " << name;
      if (!admission.error.empty()) continue;
      int max_n = admission.entry->max_n == aqo::kNoRelationCeiling
                      ? kMaxOptimizeRelations
                      : kMaxBoundedRelations;
      if (inst.NumRelations() > max_n) continue;
      options.optimizer = admission.entry->name;
      auto items = optimize({inst}, options);
      AQO_CHECK(items.size() == 1);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 12;
  if (size > kMaxInput) size = kMaxInput;
  std::string_view body(reinterpret_cast<const char*>(data), size);

  aqo::ParseResult<aqo::QonInstance> qon = aqo::ParseQonInstance(body);
  if (qon.ok()) {
    ServeEveryName(aqo::OptimizerRegistry::Qon(), &aqo::BatchOptions::qon,
                   *qon.value, aqo::OptimizeQonBatch);
  }
  aqo::ParseResult<aqo::QohInstance> qoh = aqo::ParseQohInstance(body);
  if (qoh.ok()) {
    ServeEveryName(aqo::QohOptimizerRegistry::Get(), &aqo::BatchOptions::qoh,
                   *qoh.value, aqo::OptimizeQohBatch);
  }
  return 0;
}
