#include "qo/registry.h"

#include <sstream>
#include <utility>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "qo/analysis.h"
#include "qo/bnb.h"
#include "qo/genetic.h"
#include "qo/ikkbz.h"
#include "util/check.h"

namespace aqo {

namespace {

// --- QO_N wrappers: adapt each optimizer to the uniform signature ---

OptimizerResult RunExhaustive(const QonInstance& inst,
                              const OptimizerOptions& options, Rng*) {
  return ExhaustiveQonOptimizer(inst, options);
}

OptimizerResult RunDp(const QonInstance& inst, const OptimizerOptions& options,
                      Rng*) {
  return DpQonOptimizer(inst, options);
}

OptimizerResult RunGreedy(const QonInstance& inst,
                          const OptimizerOptions& options, Rng*) {
  return GreedyQonOptimizer(inst, options);
}

OptimizerResult RunRandom(const QonInstance& inst,
                          const OptimizerOptions& options, Rng* rng) {
  return RandomSamplingOptimizer(inst, rng, options);
}

OptimizerResult RunIi(const QonInstance& inst, const OptimizerOptions& options,
                      Rng* rng) {
  return IterativeImprovementOptimizer(inst, rng, options);
}

OptimizerResult RunSa(const QonInstance& inst, const OptimizerOptions& options,
                      Rng* rng) {
  return SimulatedAnnealingOptimizer(inst, rng, options);
}

OptimizerResult RunGenetic(const QonInstance& inst,
                           const OptimizerOptions& options, Rng* rng) {
  return GeneticOptimizer(inst, rng, options);
}

OptimizerResult RunBnb(const QonInstance& inst,
                       const OptimizerOptions& options, Rng*) {
  return BranchAndBoundQonOptimizer(inst, options).result;
}

OptimizerResult RunCout(const QonInstance& inst,
                        const OptimizerOptions& options, Rng*) {
  return CoutOptimalJoinOrder(inst, options.budget, options.cancel);
}

OptimizerResult RunKbz(const QonInstance& inst,
                       const OptimizerOptions& options, Rng*) {
  // IK/KBZ only applies to tree query graphs; a non-tree instance is
  // infeasible for it, not an error (so it can ride in --optimizers=
  // lists over mixed workloads).
  if (!IsTreeQueryGraph(inst.graph())) return OptimizerResult{};
  return IkkbzOptimizer(inst, options.budget, options.cancel);
}

// --- QO_H wrappers ---

QohOptimizerResult RunQohExhaustive(const QohInstance& inst,
                                    const QohOptimizerOptions& options, Rng*) {
  return ExhaustiveQohOptimizer(inst, options.budget, options.cancel);
}

QohOptimizerResult RunQohGreedy(const QohInstance& inst,
                                const QohOptimizerOptions& options, Rng*) {
  return GreedyQohOptimizer(inst, options.budget, options.cancel);
}

QohOptimizerResult RunQohRandom(const QohInstance& inst,
                                const QohOptimizerOptions& options, Rng* rng) {
  return RandomSamplingQohOptimizer(inst, rng, options);
}

QohOptimizerResult RunQohIi(const QohInstance& inst,
                            const QohOptimizerOptions& options, Rng* rng) {
  return IterativeImprovementQohOptimizer(inst, rng, options);
}

QohOptimizerResult RunQohSa(const QohInstance& inst,
                            const QohOptimizerOptions& options, Rng* rng) {
  return SimulatedAnnealingQohOptimizer(inst, rng, options);
}

}  // namespace

namespace registry_internal {

template <typename Entry>
const Entry* RegistryT<Entry>::Find(std::string_view name) const {
  for (const auto& [alias, canonical] : aliases_) {
    if (alias == name) {
      name = canonical;
      break;
    }
  }
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

template <typename Entry>
std::vector<std::string> RegistryT<Entry>::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

template <typename Entry>
std::string RegistryT<Entry>::Describe() const {
  std::ostringstream out;
  out << family_ << " optimizers (--optimizers=<name>[,<name>...]):\n";
  for (const Entry& e : entries_) {
    out << "  " << e.name;
    for (size_t pad = e.name.size(); pad < 12; ++pad) out << ' ';
    out << ' ' << e.description;
    if (e.deterministic) out << " [deterministic]";
    out << '\n';
    for (const KnobSpec& k : e.knobs) {
      out << "      " << k.flag;
      for (size_t pad = k.flag.size(); pad < 24; ++pad) out << ' ';
      out << ' ' << k.description << '\n';
    }
  }
  if (!aliases_.empty()) {
    out << "aliases:";
    for (const auto& [alias, canonical] : aliases_) {
      out << ' ' << alias << " -> " << canonical;
    }
    out << '\n';
  }
  out << "common knobs: --budget-evals= (deterministic evaluation cap),"
         " --deadline-ms= (wall-clock deadline)\n";
  return out.str();
}

template <typename Entry>
typename Entry::Result RegistryT<Entry>::Run(std::string_view name,
                                             const Instance& inst,
                                             const Options& options,
                                             Rng* rng) const {
  const Entry* entry = Find(name);
  AQO_CHECK(entry != nullptr)
      << "unknown " << (family_ == "qon" ? "QO_N" : "QO_H")
      << " optimizer: " << name;
  typename Entry::Result result;
  {
    // Per-optimizer invocation latency, keyed by canonical name (aliases
    // fold into their target's distribution). The GetHistogram lookup
    // costs one mutex acquire — noise next to the invocation itself.
    obs::ScopedLatencyTimer timer(obs::Registry::Get().GetHistogram(
        family_ + "." + entry->name + ".invoke_us"));
    result = entry->run(inst, options, rng);
  }
  return result;
}

template class RegistryT<QonOptimizerEntry>;
template class RegistryT<QohOptimizerEntry>;

}  // namespace registry_internal

const OptimizerRegistry& OptimizerRegistry::Qon() {
  static const OptimizerRegistry* registry = [] {
    std::vector<QonOptimizerEntry> entries = {
        {"exhaustive", "all n! permutations (n <= 10)", true, {},
         RunExhaustive},
        {"dp", "exact left-deep subset DP (n <= 24)", true, {}, RunDp},
        {"greedy", "cheapest-next-join from every start", true, {},
         RunGreedy},
        {"random", "best of options.samples random sequences", false,
         {{"--samples=", "random sequences drawn"}}, RunRandom},
        {"ii", "first-improvement local search, options.restarts starts",
         false,
         {{"--restarts=", "random restarts"}}, RunIi},
        {"sa", "simulated annealing (knobs: options.sa)", false,
         {{"--sa-iterations=", "moves per restart"},
          {"--sa-temperature=", "initial temperature (log2-cost units)"},
          {"--sa-cooling=", "geometric cooling factor"},
          {"--sa-restarts=", "independent annealing runs"}},
         RunSa},
        {"genetic", "genetic algorithm (knobs: options.ga)", false,
         {{"--ga-population=", "individuals per generation"},
          {"--ga-generations=", "generations evolved"},
          {"--ga-crossover=", "crossover probability"},
          {"--ga-mutation=", "mutation probability"}},
         RunGenetic},
        {"bnb", "branch & bound (options.bnb_node_limit, 0 = exact)", true,
         {{"--bnb-node-limit=", "node budget (0 = unlimited)"}}, RunBnb},
        {"cout", "exact optimum under the C_out cost metric", true, {},
         RunCout},
        {"kbz", "IK/KBZ, exact on tree query graphs (else infeasible)", true,
         {}, RunKbz},
    };
    return new OptimizerRegistry(std::move(entries), {{"ga", "genetic"}});
  }();
  return *registry;
}

const QohOptimizerRegistry& QohOptimizerRegistry::Get() {
  static const QohOptimizerRegistry* registry = [] {
    std::vector<QohOptimizerEntry> entries = {
        {"exhaustive", "all n! permutations, optimal decomposition (n <= 9)",
         true, {}, RunQohExhaustive},
        {"greedy", "min-next-intermediate construction", true, {},
         RunQohGreedy},
        {"random", "best of options.samples random sequences", false,
         {{"--samples=", "random sequences drawn"}}, RunQohRandom},
        {"ii", "adjacent-transposition local search", false,
         {{"--restarts=", "random restarts"}}, RunQohIi},
        {"sa", "simulated annealing (knobs: options.sa)", false,
         {{"--sa-iterations=", "moves per restart"},
          {"--sa-temperature=", "initial temperature (log2-cost units)"},
          {"--sa-cooling=", "geometric cooling factor"},
          {"--sa-restarts=", "independent annealing runs"}},
         RunQohSa},
    };
    return new QohOptimizerRegistry(std::move(entries),
                                    {{"sample", "random"}});
  }();
  return *registry;
}

std::vector<std::string> ParseOptimizerList(std::string_view csv) {
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view piece = csv.substr(pos, comma - pos);
    while (!piece.empty() && (piece.front() == ' ' || piece.front() == '\t')) {
      piece.remove_prefix(1);
    }
    while (!piece.empty() && (piece.back() == ' ' || piece.back() == '\t')) {
      piece.remove_suffix(1);
    }
    if (!piece.empty()) names.emplace_back(piece);
    pos = comma + 1;
  }
  return names;
}

}  // namespace aqo
