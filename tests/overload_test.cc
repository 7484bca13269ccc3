// Admission and the deterministic load governor (qo/overload.h): the
// registry entries' cost estimates and degrade rules, Admit's refusals,
// leaky-bucket tier transitions, and the serve-path property the whole
// design exists for — the shed/degrade decision trace is a pure function
// of the request stream, bit-identical with and without a plan cache,
// and invariant under instance relabeling.

#include "qo/overload.h"

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/plan_cache.h"
#include "qo/qoh_optimizers.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr double kCostCap = 1125899906842624.0;  // 2^50, the saturation

const QonOptimizerEntry& Qon(std::string_view name) {
  const QonOptimizerEntry* entry = OptimizerRegistry::Qon().Find(name);
  EXPECT_NE(entry, nullptr) << name;
  return *entry;
}

const QohOptimizerEntry& Qoh(std::string_view name) {
  const QohOptimizerEntry* entry = QohOptimizerRegistry::Get().Find(name);
  EXPECT_NE(entry, nullptr) << name;
  return *entry;
}

// An entry's degrade rule applied: its fallback's name, knobs clamped in
// place.
template <typename Entry>
std::string Degrade(const Entry& entry, typename Entry::Options* options) {
  if (entry.clamp != nullptr) entry.clamp(options);
  return entry.degrade_to;
}

// ---------------------------------------------------------------------------
// Cost estimates, read from the registry entries.

TEST(EstimateCost, QonTableMatchesDeclaredFormulas) {
  OptimizerOptions o;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("greedy"), o, 7), 49.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("kbz"), o, 7), 49.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("dp"), o, 7), 7.0 * 128.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("cout"), o, 7), 7.0 * 128.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("exhaustive"), o, 6), 720.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("random"), o, 7), 1000.0 * 7.0);
  o.samples = 10;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("random"), o, 7), 70.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("ii"), o, 5), 8.0 * 125.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("sa"), o, 7), 3.0 * 20000.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("genetic"), o, 7), 64.0 * 120.0);
  // bnb: 2^n, capped like every entry by the evaluation budget.
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("bnb"), o, 7), 128.0);
  o.budget.max_evaluations = 37;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("bnb"), o, 7), 37.0);
}

TEST(EstimateCost, QohTableMatchesDeclaredFormulas) {
  QohOptimizerOptions o;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qoh("greedy"), o, 6), 36.0);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qoh("exhaustive"), o, 6), 720.0);
  o.samples = 8;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qoh("random"), o, 6), 48.0);
}

TEST(EstimateCost, SaturatesAtTheCap) {
  OptimizerOptions o;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("exhaustive"), o, 200), kCostCap);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("dp"), o, 200), kCostCap);
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("bnb"), o, 62), kCostCap);
  QohOptimizerOptions qoh;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qoh("exhaustive"), qoh, 200), kCostCap);
}

TEST(EstimateCost, BudgetCapsTheEstimate) {
  OptimizerOptions o;
  o.budget.max_evaluations = 100;
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("dp"), o, 20), 100.0);
  // The budget never inflates a cheap request.
  EXPECT_DOUBLE_EQ(EstimateCostUnits(Qon("greedy"), o, 5), 25.0);
}

// ---------------------------------------------------------------------------
// Degrade rules, read from the registry entries.

TEST(Degrade, QonExactEntriesFallToGreedy) {
  for (const char* name : {"exhaustive", "dp", "bnb", "cout"}) {
    OptimizerOptions o;
    EXPECT_EQ(Degrade(Qon(name), &o), "greedy") << name;
  }
}

TEST(Degrade, QonStochasticEntriesKeepIdentityWithClampedEffort) {
  OptimizerOptions o;
  EXPECT_EQ(Degrade(Qon("random"), &o), "random");
  EXPECT_EQ(o.samples, 64);
  o = OptimizerOptions{};
  EXPECT_EQ(Degrade(Qon("ii"), &o), "ii");
  EXPECT_EQ(o.restarts, 2);
  o = OptimizerOptions{};
  EXPECT_EQ(Degrade(Qon("sa"), &o), "sa");
  EXPECT_EQ(o.sa.restarts, 1);
  EXPECT_EQ(o.sa.iterations, 2000);
  o = OptimizerOptions{};
  EXPECT_EQ(Degrade(Qon("genetic"), &o), "genetic");
  EXPECT_EQ(o.ga.population, 16);
  EXPECT_EQ(o.ga.generations, 16);
}

TEST(Degrade, ClampNeverRaisesEffort) {
  OptimizerOptions o;
  o.samples = 10;  // already below the clamp
  EXPECT_EQ(Degrade(Qon("random"), &o), "random");
  EXPECT_EQ(o.samples, 10);
}

TEST(Degrade, FloorEntriesPassThroughUnchanged) {
  OptimizerOptions o;
  EXPECT_EQ(Degrade(Qon("greedy"), &o), "greedy");
  EXPECT_EQ(Degrade(Qon("kbz"), &o), "kbz");
  EXPECT_EQ(o.samples, OptimizerOptions{}.samples);
}

TEST(Degrade, QohTable) {
  QohOptimizerOptions o;
  EXPECT_EQ(Degrade(Qoh("exhaustive"), &o), "greedy");
  o = QohOptimizerOptions{};
  EXPECT_EQ(Degrade(Qoh("sa"), &o), "sa");
  EXPECT_EQ(o.sa.restarts, 1);
  EXPECT_EQ(o.sa.iterations, 1000);
  o = QohOptimizerOptions{};
  EXPECT_EQ(Degrade(Qoh("random"), &o), "random");
  EXPECT_EQ(o.samples, 64);
}

// ---------------------------------------------------------------------------
// Admission: entry, domain, then the governor.

TEST(Admit, RefusesUnknownNamesAndOutOfDomainSizesWithoutTheGovernor) {
  OverloadOptions opts;
  opts.queue_capacity = 1.0;
  LoadGovernor governor(opts);
  OptimizerOptions o;
  auto unknown = Admit(OptimizerRegistry::Qon(), "drp", 6, governor, &o);
  EXPECT_EQ(unknown.requested, nullptr);
  EXPECT_EQ(unknown.error, "optimizer: unknown QO_N entry 'drp'");
  auto big = Admit(OptimizerRegistry::Qon(), "dp", 25, governor, &o);
  EXPECT_EQ(big.error, "domain: dp takes n >= 2 and n <= 24, got n=25");
  QohOptimizerOptions qoh;
  auto small = Admit(QohOptimizerRegistry::Get(), "sample", 1, governor, &qoh);
  EXPECT_EQ(small.error, "domain: random takes n >= 2, got n=1");
  // Refusals neither drain nor charge the governor.
  EXPECT_EQ(governor.admits() + governor.degrades() + governor.sheds(), 0u);
  EXPECT_EQ(governor.PressurePermille(), 0u);
  // QO_N random is the one entry that takes a single relation.
  EXPECT_TRUE(Admit(OptimizerRegistry::Qon(), "random", 1, governor, &o)
                  .error.empty());
}

// Aliases resolve before anything is estimated: a governed stream named
// by alias decides exactly as the canonical name does.
template <typename Entry>
std::string AliasTrace(const registry_internal::RegistryT<Entry>& registry,
                       std::string_view optimizer) {
  OverloadOptions opts;
  opts.queue_capacity = 4.0;
  opts.drain_requests = 0.5;
  opts.cost_capacity = 3000.0;
  LoadGovernor governor(opts);
  std::ostringstream trace;
  for (int i = 0; i < 24; ++i) {
    typename Entry::Options options;
    auto admission = Admit(registry, optimizer, 5 + i % 4, governor, &options);
    trace << OverloadTierName(admission.decision.tier) << " "
          << admission.decision.cost_units << " " << admission.entry->name
          << "\n";
  }
  return trace.str();
}

TEST(Admit, AliasesEstimateAndDegradeLikeTheirEntries) {
  std::string genetic = AliasTrace(OptimizerRegistry::Qon(), "genetic");
  EXPECT_EQ(AliasTrace(OptimizerRegistry::Qon(), "ga"), genetic);
  std::string random = AliasTrace(QohOptimizerRegistry::Get(), "random");
  EXPECT_EQ(AliasTrace(QohOptimizerRegistry::Get(), "sample"), random);
  // Neither stream is shed wholesale, as an alias estimated at n! was.
  EXPECT_NE(genetic.find("degrade 256 genetic"), std::string::npos);
  EXPECT_NE(random.find("degrade 384 random"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The governor.

TEST(LoadGovernor, DisarmedGovernorAdmitsEverything) {
  LoadGovernor governor;  // both capacities 0
  EXPECT_FALSE(governor.armed());
  for (int i = 0; i < 100; ++i) {
    OverloadDecision d = governor.OnArrival(1e18, 1e18);
    EXPECT_EQ(d.tier, OverloadTier::kAdmit);
    EXPECT_EQ(d.pressure_permille, 0u);
    EXPECT_TRUE(d.reason.empty());
  }
  EXPECT_EQ(governor.admits(), 100u);
  EXPECT_EQ(governor.sheds(), 0u);
  EXPECT_EQ(governor.PressurePermille(), 0u);
}

TEST(LoadGovernor, DepthBucketShedsWhenAdmissionWouldOverflow) {
  OverloadOptions opts;
  opts.queue_capacity = 2.0;
  opts.drain_requests = 0.25;
  opts.degrade_threshold = 1.0;  // keep the degrade tier out of the way
  LoadGovernor governor(opts);
  ASSERT_TRUE(governor.armed());

  // Hand-computed leaky-bucket walk: drain 0.25/slot against +1/admit.
  std::vector<OverloadTier> tiers;
  std::vector<uint64_t> pressures;
  for (int i = 0; i < 5; ++i) {
    OverloadDecision d = governor.OnArrival(0.0, 0.0);
    tiers.push_back(d.tier);
    pressures.push_back(d.pressure_permille);
  }
  std::vector<OverloadTier> want_tiers = {
      OverloadTier::kAdmit, OverloadTier::kAdmit, OverloadTier::kShed,
      OverloadTier::kShed, OverloadTier::kAdmit};
  std::vector<uint64_t> want_pressures = {0, 375, 750, 625, 500};
  EXPECT_EQ(tiers, want_tiers);
  EXPECT_EQ(pressures, want_pressures);
  EXPECT_EQ(governor.admits(), 3u);
  EXPECT_EQ(governor.sheds(), 2u);
  EXPECT_EQ(governor.degrades(), 0u);
}

TEST(LoadGovernor, CostBucketDegradesThenSheds) {
  OverloadOptions opts;
  opts.cost_capacity = 1000.0;
  opts.drain_cost = 100.0;
  opts.degrade_threshold = 0.5;
  LoadGovernor governor(opts);

  // Below threshold: admitted at full cost.
  EXPECT_EQ(governor.OnArrival(400.0, 80.0).tier, OverloadTier::kAdmit);
  EXPECT_EQ(governor.OnArrival(400.0, 80.0).tier, OverloadTier::kAdmit);
  // Pressure 600 permille >= 500: degraded, and the bucket charges the
  // *degraded* estimate.
  OverloadDecision d = governor.OnArrival(400.0, 80.0);
  EXPECT_EQ(d.tier, OverloadTier::kDegrade);
  EXPECT_EQ(d.pressure_permille, 600u);
  EXPECT_DOUBLE_EQ(d.cost_units, 80.0);
  EXPECT_NE(d.reason.find("degrade threshold"), std::string::npos);
  EXPECT_EQ(governor.OnArrival(400.0, 80.0).tier, OverloadTier::kDegrade);
  // Over threshold and even the cheap form would overflow: shed, and the
  // bucket is not charged (the next cheap request still degrades).
  OverloadDecision shed = governor.OnArrival(400.0, 700.0);
  EXPECT_EQ(shed.tier, OverloadTier::kShed);
  EXPECT_NE(shed.reason.find("over capacity"), std::string::npos);
  // The shed charged nothing, so one more drain slot drops pressure back
  // under the threshold: full-cost admission resumes.
  EXPECT_EQ(governor.OnArrival(400.0, 80.0).tier, OverloadTier::kAdmit);
  EXPECT_EQ(governor.admits(), 3u);
  EXPECT_EQ(governor.degrades(), 2u);
  EXPECT_EQ(governor.sheds(), 1u);
}

TEST(LoadGovernor, ControlFramesDrainWithoutDeciding) {
  OverloadOptions opts;
  opts.cost_capacity = 1000.0;
  opts.drain_cost = 100.0;
  opts.degrade_threshold = 0.5;
  LoadGovernor governor(opts);
  governor.OnArrival(600.0, 600.0);
  EXPECT_EQ(governor.PressurePermille(), 600u);
  // Three pings drain 300 cost units and decide nothing.
  governor.OnControlFrame();
  governor.OnControlFrame();
  governor.OnControlFrame();
  EXPECT_EQ(governor.PressurePermille(), 300u);
  EXPECT_EQ(governor.admits(), 1u);
  EXPECT_EQ(governor.degrades(), 0u);
  EXPECT_EQ(governor.sheds(), 0u);
  // The drained bucket admits at full cost again.
  EXPECT_EQ(governor.OnArrival(600.0, 80.0).tier, OverloadTier::kAdmit);
}

TEST(LoadGovernor, SameStreamSameDecisions) {
  OverloadOptions opts;
  opts.queue_capacity = 4.0;
  opts.drain_requests = 0.5;
  opts.cost_capacity = 3000.0;
  LoadGovernor a(opts);
  LoadGovernor b(opts);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    double cost = static_cast<double>(rng.UniformInt(1, 2000));
    double cheap = cost / 8.0;
    OverloadDecision da = a.OnArrival(cost, cheap);
    OverloadDecision db = b.OnArrival(cost, cheap);
    EXPECT_EQ(da.tier, db.tier) << i;
    EXPECT_EQ(da.pressure_permille, db.pressure_permille) << i;
    EXPECT_EQ(da.reason, db.reason) << i;
  }
  EXPECT_EQ(a.sheds(), b.sheds());
  EXPECT_EQ(a.degrades(), b.degrades());
}

// ---------------------------------------------------------------------------
// The serve-path property: the decision trace is a pure function of the
// request stream. Every request goes through Admit, the admission the
// serve path runs, over a fixed synthetic stream while the admitted work
// *actually runs* through the optimizer registry, with and without a
// plan cache in front. The trace
// (tier, pressure, charged cost, reason, effective optimizer per request)
// must come out byte-identical in every configuration, and relabeling
// every instance must not move a single decision.

struct StreamRequest {
  std::string optimizer;
  int n;
};

std::vector<StreamRequest> PropertyStream() {
  // Cycle through cheap and expensive entries over a range of sizes; the
  // governor below is tuned so this stream crosses all three tiers.
  const char* kNames[] = {"dp", "greedy", "sa", "random", "bnb", "genetic"};
  std::vector<StreamRequest> stream;
  for (int i = 0; i < 36; ++i) {
    stream.push_back({kNames[i % 6], 5 + (i % 4)});
  }
  return stream;
}

std::string DecisionTrace(bool with_cache, bool relabel) {
  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  OverloadOptions opts;
  opts.queue_capacity = 6.0;
  opts.drain_requests = 0.5;
  opts.cost_capacity = 4000.0;
  opts.degrade_threshold = 0.6;
  LoadGovernor governor(opts);

  Rng inst_rng(99);  // same instance sequence in every configuration
  std::ostringstream trace;
  for (const auto& [optimizer, n] : PropertyStream()) {
    QonInstance inst = RandomQonWorkload(n, &inst_rng);
    if (relabel) {
      std::vector<int> perm(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = n - 1 - i;
      inst = PermuteQonInstance(inst, perm);
    }

    OptimizerOptions options;
    auto admission = Admit(OptimizerRegistry::Qon(), optimizer, n, governor,
                           &options);
    const OverloadDecision& d = admission.decision;
    const std::string& effective = admission.entry->name;
    trace << OverloadTierName(d.tier) << " " << d.pressure_permille << " "
          << d.cost_units << " " << effective << " " << d.reason << "\n";
    if (!admission.error.empty()) continue;

    // Run the admitted (possibly degraded) work for real: its outcome —
    // and whether it was a cache hit — must not leak into later
    // decisions.
    CanonicalQon canon = CanonicalizeQon(inst);
    uint64_t seed = 17;
    Hash128 key =
        QonPlanCacheKey(canon.fingerprint, effective, options, seed);
    CachedPlan cached;
    if (with_cache && cache.Lookup(key, &cached)) continue;
    Rng run_rng(MixSeed(seed, canon.fingerprint.lo));
    OptimizerResult result = OptimizerRegistry::Qon().Run(
        effective, canon.instance, options, &run_rng);
    if (with_cache && result.feasible) {
      CachedPlan plan;
      plan.feasible = result.feasible;
      plan.sequence = result.sequence;
      plan.cost = result.cost;
      plan.evaluations = result.evaluations;
      plan.status = result.status;
      cache.Insert(key, plan);
    }
  }
  trace << "admits=" << governor.admits() << " degrades="
        << governor.degrades() << " sheds=" << governor.sheds() << "\n";
  return trace.str();
}

// The trace of the stream above, as the governor has decided it since the
// estimates and degrade rules were per-name switches in this module. The
// tuned stream exercises all three tiers, so the invariance claims below
// are not vacuous.
constexpr std::string_view kReferenceTrace =
    "admit 0 160 dp \n"
    "admit 83 36 greedy \n"
    "degrade 166 2000 sa pressure 166 permille >= degrade threshold 600\n"
    "degrade 437 512 random pressure 437 permille >= degrade threshold 600\n"
    "admit 503 32 bnb \n"
    "degrade 448 256 genetic pressure 448 permille >= degrade threshold 600\n"
    "admit 500 896 dp \n"
    "degrade 611 64 greedy pressure 611 permille >= degrade threshold 600\n"
    "shed 666 60000 sa pending work over capacity (pressure 666 permille, request cost 2000 units)\n"
    "degrade 583 384 random pressure 583 permille >= degrade threshold 600\n"
    "degrade 666 49 greedy pressure 666 permille >= degrade threshold 600\n"
    "degrade 750 256 genetic pressure 750 permille >= degrade threshold 600\n"
    "degrade 833 25 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 36 greedy pending work over capacity (pressure 916 permille, request cost 36 units)\n"
    "degrade 833 2000 sa pressure 833 permille >= degrade threshold 600\n"
    "shed 916 8000 random pending work over capacity (pressure 916 permille, request cost 512 units)\n"
    "degrade 833 25 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 7680 genetic pending work over capacity (pressure 916 permille, request cost 256 units)\n"
    "degrade 833 49 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 64 greedy pending work over capacity (pressure 916 permille, request cost 64 units)\n"
    "shed 833 60000 sa pending work over capacity (pressure 833 permille, request cost 2000 units)\n"
    "degrade 750 384 random pressure 750 permille >= degrade threshold 600\n"
    "degrade 833 49 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 7680 genetic pending work over capacity (pressure 916 permille, request cost 256 units)\n"
    "degrade 833 25 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 36 greedy pending work over capacity (pressure 916 permille, request cost 36 units)\n"
    "degrade 833 2000 sa pressure 833 permille >= degrade threshold 600\n"
    "shed 916 8000 random pending work over capacity (pressure 916 permille, request cost 512 units)\n"
    "degrade 833 25 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 7680 genetic pending work over capacity (pressure 916 permille, request cost 256 units)\n"
    "degrade 833 49 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 64 greedy pending work over capacity (pressure 916 permille, request cost 64 units)\n"
    "degrade 833 2000 sa pressure 833 permille >= degrade threshold 600\n"
    "shed 916 6000 random pending work over capacity (pressure 916 permille, request cost 384 units)\n"
    "degrade 833 49 greedy pressure 833 permille >= degrade threshold 600\n"
    "shed 916 7680 genetic pending work over capacity (pressure 916 permille, request cost 256 units)\n"
    "admits=4 degrades=19 sheds=13\n";

TEST(OverloadProperty, DecisionTraceInvariantUnderCache) {
  std::string reference = DecisionTrace(false, false);
  EXPECT_EQ(reference, kReferenceTrace);
  EXPECT_EQ(DecisionTrace(true, false), reference);
}

TEST(OverloadProperty, DecisionTraceInvariantUnderRelabeling) {
  // Estimates depend on the instance only through n, and cache keys go
  // through the canonical fingerprint, so relabeling every relation must
  // not move a single decision — even with the cache interposed.
  EXPECT_EQ(DecisionTrace(true, true), DecisionTrace(true, false));
  EXPECT_EQ(DecisionTrace(false, true), DecisionTrace(false, false));
}

}  // namespace
}  // namespace aqo
