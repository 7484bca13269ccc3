#include "qo/registry.h"

#include <algorithm>
#include <cmath>
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

// Adapters from each optimizer's own signature to the registry's.
template <auto kOptimizer>
constexpr auto kWithOptions = [](const auto& inst, const auto& options, Rng*) {
  return kOptimizer(inst, options);
};
template <auto kOptimizer>
constexpr auto kWithBudget = [](const auto& inst, const auto& options, Rng*) {
  return kOptimizer(inst, options.budget);
};
template <auto kOptimizer>
constexpr auto kWithRng = [](const auto& inst, const auto& options, Rng* rng) {
  return kOptimizer(inst, rng, options);
};

// --- Work estimates and degrade clamps. The sampling, local-search and
// annealing rules read knobs both families name alike, so each is
// written once.

template <typename Options>
double Quadratic(const Options&, int n) { return static_cast<double>(n) * n; }

template <typename Options>
double Factorial(const Options&, int n) {
  return std::exp(std::lgamma(n + 1.0));
}

double SubsetDp(const OptimizerOptions&, int n) { return n * std::pow(2.0, n); }

template <typename Options>
double Samples(const Options& options, int n) {
  return static_cast<double>(std::max(options.samples, 1)) * n;
}

template <typename Options>
double LocalSearch(const Options& options, int n) {
  return static_cast<double>(std::max(options.restarts, 1)) * n * n * n;
}

template <typename Options>
double Annealing(const Options& options, int) {
  return static_cast<double>(std::max(options.sa.restarts, 1)) *
         std::max(options.sa.iterations, 1);
}

template <typename Options>
void ClampSamples(Options* o) { o->samples = std::min(o->samples, 64); }

template <typename Options>
void ClampRestarts(Options* o) { o->restarts = std::min(o->restarts, 2); }

template <int kMaxIterations, typename Options>
void ClampAnnealing(Options* options) {
  options->sa.restarts = std::min(options->sa.restarts, 1);
  options->sa.iterations = std::min(options->sa.iterations, kMaxIterations);
}

std::vector<KnobSpec> AnnealingKnobs() {
  return {{"--sa-iterations=", "moves per restart"},
          {"--sa-restarts=", "independent annealing runs"}};
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
    out << ' ' << e.description << " [" << e.DomainText() << "]";
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
      << "unknown " << Label() << " optimizer: " << name;
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

// Every entry spells out every field: designated initializers that skip
// members trip -Wmissing-field-initializers. Exact entries degrade to
// greedy, stochastic ones keep their identity with clamped effort.
const OptimizerRegistry& OptimizerRegistry::Qon() {
  static const OptimizerRegistry* registry = [] {
    std::vector<QonOptimizerEntry> entries = {
        {.name = "exhaustive", .description = "all n! permutations",
         .deterministic = true, .knobs = {},
         .run = kWithOptions<&ExhaustiveQonOptimizer>,
         .min_n = 2, .max_n = kExhaustiveQonMaxRelations,
         .estimate = Factorial,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "dp", .description = "exact left-deep subset DP",
         .deterministic = true, .knobs = {},
         .run = kWithOptions<&DpQonOptimizer>,
         .min_n = 2, .max_n = kSubsetDpMaxRelations,
         .estimate = SubsetDp,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "greedy", .description = "cheapest-next-join from every start",
         .deterministic = true, .knobs = {},
         .run = kWithOptions<&GreedyQonOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Quadratic,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "random",
         .description = "best of options.samples random sequences",
         .deterministic = false,
         .knobs = {{"--samples=", "random sequences drawn"}},
         .run = kWithRng<&RandomSamplingOptimizer>,
         .min_n = 1, .max_n = kNoRelationCeiling,
         .estimate = Samples,
         .degrade_to = "random", .clamp = ClampSamples},
        {.name = "ii",
         .description =
             "first-improvement local search, options.restarts starts",
         .deterministic = false,
         .knobs = {{"--restarts=", "random restarts"}},
         .run = kWithRng<&IterativeImprovementOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = LocalSearch,
         .degrade_to = "ii", .clamp = ClampRestarts},
        {.name = "sa", .description = "simulated annealing (knobs: options.sa)",
         .deterministic = false,
         .knobs = AnnealingKnobs(),
         .run = kWithRng<&SimulatedAnnealingOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Annealing,
         .degrade_to = "sa", .clamp = ClampAnnealing<2000>},
        {.name = "genetic",
         .description = "genetic algorithm (knobs: options.ga)",
         .deterministic = false,
         .knobs = {{"--ga-population=", "individuals per generation"},
                   {"--ga-generations=", "generations evolved"}},
         .run = kWithRng<&GeneticOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = [](const OptimizerOptions& options, int) {
           return static_cast<double>(std::max(options.ga.population, 1)) *
                  std::max(options.ga.generations, 1);
         },
         .degrade_to = "genetic",
         .clamp = [](OptimizerOptions* options) {
           options->ga.population = std::min(options->ga.population, 16);
           options->ga.generations = std::min(options->ga.generations, 16);
         }},
        {.name = "bnb",
         .description = "branch & bound, one evaluation per search node",
         .deterministic = true, .knobs = {},
         .run = kWithOptions<&BranchAndBoundQonOptimizer>,
         .min_n = 2, .max_n = kBnbMaxRelations,
         .estimate = [](const OptimizerOptions&, int n) {
           return std::pow(2.0, n);
         },
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "cout",
         .description = "C_out-optimal order, priced under QO_N",
         .deterministic = true, .knobs = {},
         // A served plan's cost is the QO_N cost of that plan, as for
         // every other entry; the C_out optimum only picks the order.
         .run = [](auto& inst, auto& options, Rng*) {
           OptimizerResult result = CoutOptimalJoinOrder(inst, options.budget);
           result.cost = QonSequenceCost(inst, result.sequence);
           return result;
         },
         .min_n = 2, .max_n = kSubsetDpMaxRelations,
         .estimate = SubsetDp,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "kbz",
         .description = "IK/KBZ, exact on tree query graphs (else infeasible)",
         .deterministic = true, .knobs = {},
         // A non-tree instance is infeasible for IK/KBZ, not an error, so
         // kbz can ride in --optimizers= lists over mixed workloads.
         .run = [](auto& inst, auto& options, Rng*) {
           if (!IsTreeQueryGraph(inst.graph())) return OptimizerResult{};
           return IkkbzOptimizer(inst, options.budget);
         },
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Quadratic,
         .degrade_to = "kbz", .clamp = nullptr},
    };
    return new OptimizerRegistry(std::move(entries), {{"ga", "genetic"}});
  }();
  return *registry;
}

const QohOptimizerRegistry& QohOptimizerRegistry::Get() {
  static const QohOptimizerRegistry* registry = [] {
    std::vector<QohOptimizerEntry> entries = {
        {.name = "exhaustive",
         .description = "all n! permutations, optimal decomposition",
         .deterministic = true, .knobs = {},
         .run = kWithBudget<&ExhaustiveQohOptimizer>,
         .min_n = 2, .max_n = kExhaustiveQohMaxRelations,
         .estimate = Factorial,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "greedy", .description = "min-next-intermediate construction",
         .deterministic = true, .knobs = {},
         .run = kWithBudget<&GreedyQohOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Quadratic,
         .degrade_to = "greedy", .clamp = nullptr},
        {.name = "random",
         .description = "best of options.samples random sequences",
         .deterministic = false,
         .knobs = {{"--samples=", "random sequences drawn"}},
         .run = kWithRng<&RandomSamplingQohOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Samples,
         .degrade_to = "random", .clamp = ClampSamples},
        {.name = "ii", .description = "adjacent-transposition local search",
         .deterministic = false,
         .knobs = {{"--restarts=", "random restarts"}},
         .run = kWithRng<&IterativeImprovementQohOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = LocalSearch,
         .degrade_to = "ii", .clamp = ClampRestarts},
        {.name = "sa", .description = "simulated annealing (knobs: options.sa)",
         .deterministic = false,
         .knobs = AnnealingKnobs(),
         .run = kWithRng<&SimulatedAnnealingQohOptimizer>,
         .min_n = 2, .max_n = kNoRelationCeiling,
         .estimate = Annealing,
         .degrade_to = "sa", .clamp = ClampAnnealing<1000>},
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
