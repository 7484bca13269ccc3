// OptimizerRegistry (qo/registry.h): every registered entry must produce
// exactly the bits (cost, sequence, evaluation count) of the direct call
// it wraps, for both families; aliases resolve; unknown names return
// null; the CSV parser trims. Every entry's declared domain is the one
// its optimizer enforces, and its degrade target takes that domain.
//
// The equivalence tables below enumerate the direct calls by registry
// name — a registry entry without a direct counterpart here fails the
// test, so new optimizers must be added to both.

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qo/analysis.h"
#include "qo/bnb.h"
#include "qo/genetic.h"
#include "qo/ikkbz.h"
#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "qo/registry.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr uint64_t kSeed = 12345;

OptimizerOptions FastQonKnobs() {
  OptimizerOptions o;
  o.samples = 100;
  o.restarts = 3;
  o.sa.iterations = 500;
  o.sa.restarts = 2;
  o.ga.population = 16;
  o.ga.generations = 10;
  return o;
}

void ExpectSameResult(const std::string& name, const OptimizerResult& reg,
                      const OptimizerResult& direct) {
  EXPECT_EQ(reg.feasible, direct.feasible) << name;
  if (!reg.feasible || !direct.feasible) return;
  EXPECT_EQ(reg.cost.Log2(), direct.cost.Log2()) << name;
  EXPECT_EQ(reg.sequence, direct.sequence) << name;
  EXPECT_EQ(reg.evaluations, direct.evaluations) << name;
}

using QonDirect = std::function<OptimizerResult(
    const QonInstance&, const OptimizerOptions&, Rng*)>;

const std::map<std::string, QonDirect>& QonDirectCalls() {
  static const std::map<std::string, QonDirect> calls = {
      {"exhaustive",
       [](const QonInstance& i, const OptimizerOptions& o, Rng*) {
         return ExhaustiveQonOptimizer(i, o);
       }},
      {"dp",
       [](const QonInstance& i, const OptimizerOptions& o, Rng*) {
         return DpQonOptimizer(i, o);
       }},
      {"greedy",
       [](const QonInstance& i, const OptimizerOptions& o, Rng*) {
         return GreedyQonOptimizer(i, o);
       }},
      {"random",
       [](const QonInstance& i, const OptimizerOptions& o, Rng* rng) {
         return RandomSamplingOptimizer(i, rng, o);
       }},
      {"ii",
       [](const QonInstance& i, const OptimizerOptions& o, Rng* rng) {
         return IterativeImprovementOptimizer(i, rng, o);
       }},
      {"sa",
       [](const QonInstance& i, const OptimizerOptions& o, Rng* rng) {
         return SimulatedAnnealingOptimizer(i, rng, o);
       }},
      {"genetic",
       [](const QonInstance& i, const OptimizerOptions& o, Rng* rng) {
         return GeneticOptimizer(i, rng, o);
       }},
      {"bnb",
       [](const QonInstance& i, const OptimizerOptions& o, Rng*) {
         return BranchAndBoundQonOptimizer(i, o);
       }},
      {"cout",
       [](const QonInstance& i, const OptimizerOptions&, Rng*) {
         // The entry serves the C_out-optimal order at its QO_N cost.
         OptimizerResult r = CoutOptimalJoinOrder(i);
         r.cost = QonSequenceCost(i, r.sequence);
         return r;
       }},
      {"kbz",
       [](const QonInstance& i, const OptimizerOptions&, Rng*) {
         if (!IsTreeQueryGraph(i.graph())) return OptimizerResult{};
         return IkkbzOptimizer(i);
       }},
  };
  return calls;
}

void CheckQonEquivalenceOn(const QonInstance& inst) {
  OptimizerOptions knobs = FastQonKnobs();
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    auto it = QonDirectCalls().find(name);
    ASSERT_NE(it, QonDirectCalls().end())
        << "registry optimizer '" << name
        << "' has no direct-call counterpart in this test; add it";
    Rng reg_rng(kSeed);
    OptimizerResult reg =
        OptimizerRegistry::Qon().Run(name, inst, knobs, &reg_rng);
    Rng direct_rng(kSeed);
    OptimizerResult direct = it->second(inst, knobs, &direct_rng);
    ExpectSameResult(name, reg, direct);
  }
}

TEST(QonRegistry, EveryEntryMatchesItsDirectCall) {
  Rng rng(31);
  CheckQonEquivalenceOn(RandomQonWorkload(8, &rng));
}

TEST(QonRegistry, EveryEntryMatchesItsDirectCallOnATree) {
  // Trees exercise kbz's feasible path (non-trees return infeasible).
  Rng rng(32);
  WorkloadOptions options;
  options.shape = WorkloadShape::kTree;
  QonInstance inst = RandomQonWorkload(8, &rng, options);
  ASSERT_TRUE(IsTreeQueryGraph(inst.graph()));
  CheckQonEquivalenceOn(inst);
}

using QohDirect = std::function<QohOptimizerResult(
    const QohInstance&, const QohOptimizerOptions&, Rng*)>;

const std::map<std::string, QohDirect>& QohDirectCalls() {
  static const std::map<std::string, QohDirect> calls = {
      {"exhaustive",
       [](const QohInstance& i, const QohOptimizerOptions&, Rng*) {
         return ExhaustiveQohOptimizer(i);
       }},
      {"greedy",
       [](const QohInstance& i, const QohOptimizerOptions&, Rng*) {
         return GreedyQohOptimizer(i);
       }},
      {"random",
       [](const QohInstance& i, const QohOptimizerOptions& o, Rng* rng) {
         return RandomSamplingQohOptimizer(i, rng, o);
       }},
      {"ii",
       [](const QohInstance& i, const QohOptimizerOptions& o, Rng* rng) {
         return IterativeImprovementQohOptimizer(i, rng, o);
       }},
      {"sa",
       [](const QohInstance& i, const QohOptimizerOptions& o, Rng* rng) {
         return SimulatedAnnealingQohOptimizer(i, rng, o);
       }},
  };
  return calls;
}

TEST(QohRegistry, EveryEntryMatchesItsDirectCall) {
  Rng rng(33);
  QohInstance inst = RandomQohWorkload(7, &rng, 0.5);
  QohOptimizerOptions knobs;
  knobs.samples = 60;
  knobs.restarts = 2;
  knobs.sa.iterations = 300;
  knobs.sa.restarts = 1;
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    auto it = QohDirectCalls().find(name);
    ASSERT_NE(it, QohDirectCalls().end())
        << "registry optimizer '" << name
        << "' has no direct-call counterpart in this test; add it";
    Rng reg_rng(kSeed);
    QohOptimizerResult reg =
        QohOptimizerRegistry::Get().Run(name, inst, knobs, &reg_rng);
    Rng direct_rng(kSeed);
    QohOptimizerResult direct = it->second(inst, knobs, &direct_rng);
    EXPECT_EQ(reg.feasible, direct.feasible) << name;
    if (!reg.feasible) continue;
    EXPECT_EQ(reg.cost.Log2(), direct.cost.Log2()) << name;
    EXPECT_EQ(reg.sequence, direct.sequence) << name;
    EXPECT_EQ(reg.evaluations, direct.evaluations) << name;
    EXPECT_EQ(reg.decomposition.starts, direct.decomposition.starts) << name;
  }
}

TEST(Registry, AliasesResolveToCanonicalEntries) {
  const QonOptimizerEntry* ga = OptimizerRegistry::Qon().Find("ga");
  ASSERT_NE(ga, nullptr);
  EXPECT_EQ(ga->name, "genetic");
  const QohOptimizerEntry* sample = QohOptimizerRegistry::Get().Find("sample");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->name, "random");
}

TEST(Registry, UnknownNamesReturnNull) {
  EXPECT_EQ(OptimizerRegistry::Qon().Find("no-such-optimizer"), nullptr);
  EXPECT_EQ(QohOptimizerRegistry::Get().Find(""), nullptr);
}

TEST(Registry, ParseOptimizerListTrimsAndDropsEmpties) {
  EXPECT_EQ(ParseOptimizerList(" a, b ,,c\t"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(ParseOptimizerList("").empty());
}

TEST(Registry, DescribeListsEntriesKnobsAndAliases) {
  std::string qon = OptimizerRegistry::Qon().Describe();
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    EXPECT_NE(qon.find(name), std::string::npos) << name;
  }
  EXPECT_NE(qon.find("--sa-iterations="), std::string::npos);
  EXPECT_NE(qon.find("ga -> genetic"), std::string::npos);
  EXPECT_NE(qon.find("[deterministic]"), std::string::npos);
  std::string qoh = QohOptimizerRegistry::Get().Describe();
  EXPECT_NE(qoh.find("sample -> random"), std::string::npos);
  // Every knob flag advertised by an entry is a real harness flag, so
  // the schema doubles as flag documentation (bench_common reads them).
  EXPECT_NE(qoh.find("--restarts="), std::string::npos);
}

// Each entry's degrade target must take every n the entry takes, or a
// degraded request could abort the server.
template <typename Registry>
void ExpectDegradeTargetsCoverTheirSources(const Registry& registry) {
  for (const std::string& name : registry.Names()) {
    const auto* entry = registry.Find(name);
    const auto* target = registry.Find(entry->degrade_to);
    ASSERT_NE(target, nullptr) << name << " -> " << entry->degrade_to;
    EXPECT_LE(target->min_n, entry->min_n) << name;
    EXPECT_GE(target->max_n, entry->max_n) << name;
  }
}

TEST(Registry, DegradeTargetsCoverTheirSourcesDomain) {
  ExpectDegradeTargetsCoverTheirSources(OptimizerRegistry::Qon());
  ExpectDegradeTargetsCoverTheirSources(QohOptimizerRegistry::Get());
}

// Describe() states every entry's domain, ceiling included, on the
// entry's own line.
template <typename Registry>
void ExpectDescribedDomains(const Registry& registry) {
  std::string listing = registry.Describe();
  for (const std::string& name : registry.Names()) {
    const auto* entry = registry.Find(name);
    size_t line = listing.find("  " + name + " ");
    ASSERT_NE(line, std::string::npos) << name;
    std::string text = listing.substr(line, listing.find('\n', line) - line);
    std::ostringstream domain;
    domain << "[n >= " << entry->min_n;
    if (entry->max_n != kNoRelationCeiling) {
      domain << " and n <= " << entry->max_n;
    }
    domain << "]";
    EXPECT_NE(text.find(domain.str()), std::string::npos) << text;
  }
}

TEST(Registry, DescribePrintsEveryDomain) {
  ExpectDescribedDomains(OptimizerRegistry::Qon());
  ExpectDescribedDomains(QohOptimizerRegistry::Get());
}

// The declared domain is the optimizer's own: it runs at its floor, and
// its guard fires one below the floor and one past the ceiling. The
// guards run before any search work, so the deaths are cheap.
TEST(RegistryDeathTest, QonGuardsFireJustOutsideTheDeclaredDomain) {
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    const QonOptimizerEntry& entry = *OptimizerRegistry::Qon().Find(name);
    Rng rng(kSeed);
    entry.run(RandomQonWorkload(entry.min_n, &rng), FastQonKnobs(), &rng);
    for (int n : {entry.min_n - 1, entry.max_n == kNoRelationCeiling
                                       ? 0
                                       : entry.max_n + 1}) {
      if (n < 1) continue;
      QonInstance inst = RandomQonWorkload(n, &rng);
      EXPECT_DEATH(entry.run(inst, OptimizerOptions{}, &rng), "check failed")
          << name << " n=" << n;
    }
  }
}

TEST(RegistryDeathTest, QohGuardsFireJustOutsideTheDeclaredDomain) {
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    const QohOptimizerEntry& entry = *QohOptimizerRegistry::Get().Find(name);
    Rng rng(kSeed);
    entry.run(RandomQohWorkload(entry.min_n, &rng, 0.5), QohOptimizerOptions{},
              &rng);
    for (int n : {entry.min_n - 1, entry.max_n == kNoRelationCeiling
                                       ? 0
                                       : entry.max_n + 1}) {
      if (n < 1) continue;
      QohInstance inst = RandomQohWorkload(n, &rng, 0.5);
      EXPECT_DEATH(entry.run(inst, QohOptimizerOptions{}, &rng),
                   "check failed")
          << name << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace aqo
