#ifndef AQO_QO_REGISTRY_H_
#define AQO_QO_REGISTRY_H_

// Name -> optimizer registries with one uniform call signature per
// problem family:
//
//   QO_N:  (const QonInstance&, const OptimizerOptions&, Rng*)
//              -> OptimizerResult
//   QO_H:  (const QohInstance&, const QohOptimizerOptions&, Rng*)
//              -> QohOptimizerResult
//
// Both families share one entry shape (OptimizerEntryT) and one registry
// implementation (registry_internal::RegistryT); only the instance /
// options / result types differ. An entry carries metadata — name,
// description, determinism, and a knob schema naming the harness flags
// that feed it — so front-ends render `--optimizers=help` from
// Describe() instead of hand-maintaining flag docs. It also carries what
// admission needs (qo/overload.h): the relation counts the optimizer
// accepts, a work estimate, and the cheaper form to run under load.
//
// Benches and tools select optimizers by name (--optimizers=a,b,c)
// instead of hand-rolling call lists; the batch service (qo/service.h)
// resolves its optimizer the same way, so every optimizer is cacheable
// and batchable for free. Deterministic optimizers ignore the Rng (it
// may be null for them); stochastic ones consume it, and equal (instance,
// options, rng-state) triples produce bit-identical results — the
// registry wrappers add no randomness and no reordering of their own.
//
// Unknown names are a contract violation: Find returns nullptr so
// front-ends can exit nonzero with the valid-name list (never a silent
// skip), while Run CHECK-fails for programmatic callers.

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "util/random.h"

namespace aqo {

// One knob an entry reads, named by the harness flag that sets it (see
// bench/bench_common.h ReadQonKnobs/ReadQohKnobs) — purely descriptive
// metadata for Describe() listings.
struct KnobSpec {
  std::string flag;         // e.g. "--sa-iterations="
  std::string description;  // one line
};

// The max_n of an entry whose domain has no ceiling.
inline constexpr int kNoRelationCeiling = std::numeric_limits<int>::max();

// The unified registry entry: per-family only in its three type
// parameters, identical in shape and metadata otherwise.
template <typename InstanceT, typename OptionsT, typename ResultT>
struct OptimizerEntryT {
  using Instance = InstanceT;
  using Options = OptionsT;
  using Result = ResultT;

  std::string name;         // canonical registry name
  std::string description;  // one line, shown in --help style listings
  bool deterministic = false;  // true: ignores the Rng entirely
  std::vector<KnobSpec> knobs;  // the flags this entry reads
  std::function<Result(const Instance&, const Options&, Rng*)> run;

  // Admission data (qo/overload.h). The domain is the relation counts
  // `run` accepts: outside it the optimizer CHECK-fails.
  int min_n = 2;
  int max_n = kNoRelationCeiling;
  // Work for an in-domain n, in cost units (roughly cost evaluations).
  double (*estimate)(const Options& options, int n) = nullptr;
  // Under load, run `degrade_to` (an entry whose domain covers this one's;
  // possibly this one) with `clamp`, when set, applied to the knobs.
  std::string degrade_to;
  void (*clamp)(Options* options) = nullptr;

  // "n >= <min_n> and n <= <max_n>", or "n >= <min_n>" without a ceiling.
  std::string DomainText() const {
    std::string text = "n >= " + std::to_string(min_n);
    if (max_n == kNoRelationCeiling) return text;
    return text + " and n <= " + std::to_string(max_n);
  }
};

using QonOptimizerEntry =
    OptimizerEntryT<QonInstance, OptimizerOptions, OptimizerResult>;
using QohOptimizerEntry =
    OptimizerEntryT<QohInstance, QohOptimizerOptions, QohOptimizerResult>;

namespace registry_internal {

// Shared registry implementation: alias resolution, name listing, the
// Describe() help text, and the instrumented invoke path. Instantiated
// once per family in registry.cc.
template <typename Entry>
class RegistryT {
 public:
  using Instance = typename Entry::Instance;
  using Options = typename Entry::Options;
  using Result = typename Entry::Result;

  // Resolves a name or alias; nullptr when unknown.
  const Entry* Find(std::string_view name) const;

  // Canonical names in registration order (aliases excluded).
  std::vector<std::string> Names() const;

  // "QO_N" | "QO_H", as error messages name the family.
  std::string_view Label() const { return family_ == "qon" ? "QO_N" : "QO_H"; }

  // Multi-line human-readable listing of every entry: name, description,
  // domain, determinism marker, knob schema, and the alias table.
  // This is what --optimizers=help prints.
  std::string Describe() const;

  // Runs a registered optimizer; CHECK-fails on unknown names. Records
  // the invocation latency into <family>.<name>.invoke_us.
  Result Run(std::string_view name, const Instance& inst,
             const Options& options, Rng* rng) const;

 protected:
  RegistryT(std::string family, std::vector<Entry> entries,
            std::vector<std::pair<std::string, std::string>> aliases)
      : family_(std::move(family)),
        entries_(std::move(entries)),
        aliases_(std::move(aliases)) {}

 private:
  std::string family_;  // "qon" | "qoh": histogram prefix
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> aliases_;
};

}  // namespace registry_internal

class OptimizerRegistry
    : public registry_internal::RegistryT<QonOptimizerEntry> {
 public:
  // The built-in QO_N registry: exhaustive, dp, greedy, random, ii, sa,
  // genetic (alias: ga), bnb, cout, kbz.
  static const OptimizerRegistry& Qon();

 private:
  OptimizerRegistry(std::vector<QonOptimizerEntry> entries,
                    std::vector<std::pair<std::string, std::string>> aliases)
      : RegistryT("qon", std::move(entries), std::move(aliases)) {}
};

class QohOptimizerRegistry
    : public registry_internal::RegistryT<QohOptimizerEntry> {
 public:
  // The built-in QO_H registry: exhaustive, greedy, random (alias:
  // sample), ii, sa.
  static const QohOptimizerRegistry& Get();

 private:
  QohOptimizerRegistry(std::vector<QohOptimizerEntry> entries,
                       std::vector<std::pair<std::string, std::string>> aliases)
      : RegistryT("qoh", std::move(entries), std::move(aliases)) {}
};

// Splits a comma-separated --optimizers= value into trimmed, non-empty
// names ("greedy, ii" -> {"greedy", "ii"}).
std::vector<std::string> ParseOptimizerList(std::string_view csv);

}  // namespace aqo

#endif  // AQO_QO_REGISTRY_H_
