// Fuzz target: aqo_serve's request path, entered where the server enters
// it: SplitServeFrame (io/serve_request.h) reads the verb and id, and
// ServeRequest the rest of the header; it reads the body, admits it, runs
// a one-instance batch and encodes the response. An input that starts
// with `req ` is served unchanged, so the header grammar is fuzzed too;
// any other input is a body, served as `req f optimizer=<name>` plus the
// body for every registry name and alias of its family. No input may
// abort, and every response is `ok` or `err`.
//
// Each request is served with the load governor disarmed, three ways:
// once with no cache (a miss); twice through one shared PlanCache, the
// second time a hit; and once with its body relabeled, relation i renamed
// n - 1 - i (ParseQ*Instance, PermuteQ*Instance, WriteQ*Instance), through
// the same cache. Where the miss is complete or budget-exhausted, the
// cached answers must equal it byte for byte (a hit answers the bytes a
// miss computes). Where the relabeled body also gets the miss's
// fingerprint, its answer must have the same first line (status,
// cost_log2, evaluations), and the sequence mapped through the renaming
// whenever the two canonical orders correspond relation by relation
// (relations that refinement leaves tied may be served as automorphic
// images; a body whose relabeling gets another fingerprint is a missed
// hit, never a wrong one).
// Then the request is served with the governor armed with small
// capacities.
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
#include <utility>
#include <vector>

#include "io/serialization.h"
#include "io/serve_request.h"
#include "qo/fingerprint.h"
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

// aqo_serve's defaults for one family, with every run capped, through
// the shared cache or with none.
aqo::BatchOptions Options(const char* optimizer, bool cached) {
  aqo::BatchOptions options;
  options.optimizer = optimizer;
  options.seed = 1;
  options.cache = cached ? &SharedCache() : nullptr;
  options.qon.budget.max_evaluations = kMaxEvaluations;
  options.qoh.budget.max_evaluations = kMaxEvaluations;
  return options;
}

// A body relabeled: relation i renamed n - 1 - i.
struct Relabeling {
  std::string body;       // its text
  std::vector<int> perm;  // perm[i] = n - 1 - i
  // The relabeled body's fingerprint is the body's, and so is its
  // canonical instance (up to hash collision).
  bool same_fingerprint = false;
  // Also each canonical position holds the renamed relation:
  // from'[c] = perm[from[c]].
  bool orders_correspond = false;
};

template <typename Instance, typename Permute, typename Write, typename Label>
Relabeling Relabel(const Instance& inst, Permute permute, Write write,
                   Label label) {
  Relabeling r;
  int n = inst.NumRelations();
  for (int i = 0; i < n; ++i) r.perm.push_back(n - 1 - i);
  Instance renamed = permute(inst, r.perm);
  std::ostringstream text;
  write(renamed, text);
  r.body = text.str();
  aqo::CanonicalLabels a = label(inst);
  aqo::CanonicalLabels b = label(renamed);
  r.same_fingerprint = a.fingerprint == b.fingerprint;
  r.orders_correspond = r.same_fingerprint;
  for (size_t c = 0; c < r.perm.size(); ++c) {
    int image = r.perm[static_cast<size_t>(a.from_canonical[c])];
    r.orders_correspond = r.orders_correspond && b.from_canonical[c] == image;
  }
  return r;
}

// The first line of a response: for `ok`, its id, family, feasibility,
// status, cost_log2 and evaluations.
std::string_view FirstLine(std::string_view response) {
  return response.substr(0, response.find('\n'));
}

// The sequence of an `ok` response's `seq` line, empty without one.
std::vector<int> Sequence(const std::string& response) {
  std::vector<int> seq;
  size_t at = response.find("\nseq");
  if (at == std::string::npos) return seq;
  std::istringstream in(response.substr(at + 4));
  for (int v; in >> v;) seq.push_back(v);
  return seq;
}

// Complete and budget-exhausted answers are the ones a cache keeps.
bool Cacheable(const std::string& response) {
  std::string_view line = FirstLine(response);
  return line.starts_with("ok ") &&
         (line.find(" status=complete ") != std::string_view::npos ||
          line.find(" status=budget_exhausted ") != std::string_view::npos);
}

// One input's requests.
class Requests {
 public:
  explicit Requests(Relabeling relabeling)
      : relabeling_(std::move(relabeling)) {}

  void Serve(std::string_view payload) {
    aqo::ServeFrame request = aqo::SplitServeFrame(payload);
    // aqo_serve answers a header without an id itself.
    if (request.id.empty()) return;
    std::string miss = Respond(request, /*cached=*/false, &disarmed_);
    std::string first = Respond(request, /*cached=*/true, &disarmed_);
    std::string hit = Respond(request, /*cached=*/true, &disarmed_);
    if (Cacheable(miss)) {
      for (const std::string* cached : {&first, &hit}) {
        AQO_CHECK(!Cacheable(*cached) || *cached == miss)
            << "cached answer differs from a miss:\n"
            << *cached << "\nvs\n"
            << miss;
      }
      if (relabeling_.same_fingerprint) CheckRelabeled(request, miss);
    }
    Respond(request, /*cached=*/true, &armed_);
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
  static std::string Respond(const aqo::ServeFrame& request, bool cached,
                            aqo::LoadGovernor* governor) {
    static const aqo::BatchOptions qon[2] = {Options("dp", false),
                                             Options("dp", true)};
    static const aqo::BatchOptions qoh[2] = {Options("greedy", false),
                                             Options("greedy", true)};
    std::string response =
        aqo::ServeRequest(request, qon[cached], qoh[cached], governor);
    AQO_CHECK(response.starts_with("ok ") || response.starts_with("err "))
        << response;
    return response;
  }

  // The request's header over the relabeled body, against its miss.
  void CheckRelabeled(const aqo::ServeFrame& request,
                      const std::string& miss) {
    std::string payload = std::string(request.line) + "\n" + relabeling_.body;
    std::string response = Respond(aqo::SplitServeFrame(payload),
                                   /*cached=*/true, &disarmed_);
    if (!Cacheable(response)) return;
    AQO_CHECK(FirstLine(response) == FirstLine(miss))
        << "relabeled answer differs:\n"
        << response << "\nvs\n"
        << miss;
    if (!relabeling_.orders_correspond) return;
    std::vector<int> mapped = Sequence(miss);
    for (int& v : mapped) v = relabeling_.perm[static_cast<size_t>(v)];
    AQO_CHECK(Sequence(response) == mapped)
        << "relabeled sequence is not mapped:\n"
        << response << "\nvs\n"
        << miss;
  }

  Relabeling relabeling_;
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
  // Only bodies small enough to be optimized are relabeled: above that a
  // request is refused before any run, and relabeling an instance costs
  // its n x n matrices again.
  Relabeling relabeling;
  if (qon.ok() && n <= kMaxOptimizeRelations) {
    relabeling = Relabel(
        *qon.value, aqo::PermuteQonInstance, aqo::WriteQonInstance,
        [](const aqo::QonInstance& inst) { return aqo::LabelQon(inst); });
  } else if (qoh.ok() && n <= kMaxOptimizeRelations) {
    relabeling = Relabel(
        *qoh.value, aqo::PermuteQohInstance, aqo::WriteQohInstance,
        [](const aqo::QohInstance& inst) { return aqo::LabelQoh(inst); });
  }
  Requests requests(std::move(relabeling));
  if (whole) {
    if (n <= kMaxBoundedRelations) requests.Serve(input);
  } else if (qon.ok()) {
    requests.ServeEveryName(aqo::OptimizerRegistry::Qon(), body, n);
  } else if (qoh.ok()) {
    requests.ServeEveryName(aqo::QohOptimizerRegistry::Get(), body, n);
  }
  return 0;
}
