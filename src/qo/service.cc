#include "qo/service.h"

#include <chrono>
#include <exception>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace aqo {

namespace {

void AddString(HashAccumulator* acc, std::string_view s) {
  acc->Add(s.size());
  for (char c : s) acc->Add(static_cast<uint64_t>(static_cast<uint8_t>(c)));
}

// "qon_key2": bumped from "qon_key1" when the `cout` entry started to
// return the QO_N cost of its plan, so no persisted entry serves the old
// cost bits (docs/persistence.md).
constexpr uint64_t kQonKeyTag = 0x716f6e5f6b657932ULL;
constexpr uint64_t kQohKeyTag = 0x716f685f6b657931ULL;
// Deterministic optimizers ignore the Rng; folding a fixed sentinel
// instead of the seed lets their entries hit across seeds.
constexpr uint64_t kDeterministicSeed = 0x64657465726d696eULL;

// Lowercase hex of a canonical fingerprint, for trace-slice annotation.
std::string FingerprintHex(const Hash128& h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<size_t>(15 - i)] = kDigits[(h.hi >> (4 * i)) & 0xf];
    out[static_cast<size_t>(31 - i)] = kDigits[(h.lo >> (4 * i)) & 0xf];
  }
  return out;
}

// The outcome-split per-item latency histogram: batch items report into
// one of four distributions so a p99 regression in computed items is not
// drowned out by a sea of microsecond cache hits.
obs::Histogram& ItemHistogram(PlanStatus status, bool cache_hit) {
  static obs::Histogram& hit_us =
      obs::Registry::Get().GetHistogram("qo.service.item_cache_hit_us");
  static obs::Histogram& computed_us =
      obs::Registry::Get().GetHistogram("qo.service.item_computed_us");
  static obs::Histogram& failed_us =
      obs::Registry::Get().GetHistogram("qo.service.item_failed_us");
  static obs::Histogram& deadline_us =
      obs::Registry::Get().GetHistogram("qo.service.item_deadline_us");
  if (cache_hit) return hit_us;
  switch (status) {
    case PlanStatus::kFailed:
      return failed_us;
    case PlanStatus::kDeadlineExceeded:
      return deadline_us;
    default:
      return computed_us;
  }
}

// Shared batch pass for both families; `Traits` supplies the
// family-specific pieces. Items run one at a time in batch order, so cache
// probes, inserts, counter totals and run-log records all follow that
// order.
template <typename Traits>
std::vector<typename Traits::Item> RunBatch(
    const std::vector<typename Traits::Instance>& instances,
    const BatchOptions& options) {
  const auto* entry = Traits::Registry().Find(options.optimizer);
  AQO_CHECK(entry != nullptr)
      << "unknown " << Traits::kFamily << " optimizer: " << options.optimizer;
  PlanCache* cache = options.cache;

  std::vector<typename Traits::Item> out(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    // One trace slice and one latency sample per item.
    obs::TraceSpan slice("qo.service.item", "service");
    auto item_start = std::chrono::steady_clock::now();
    const typename Traits::Instance& inst = instances[i];
    CanonicalLabels c = Traits::Label(inst);
    Hash128 key = Traits::Key(c, *entry, options);
    CachedPlan plan;
    bool hit = cache != nullptr && cache->Lookup(key, &plan);
    if (!hit) {
      // Per-item isolation: a throwing item (a real exception or the
      // "service.item" fault site at the item's index) is kFailed:
      // infeasible, never cached, and without a run record, since the
      // fault fires before the run and InstrumentedRun writes its record
      // only once the run returns. Its siblings are untouched.
      obs::InstanceShape shape{.family = std::string(Traits::kFamily),
                               .kind = "batch",
                               .side = "",
                               .source = "",
                               .n = inst.NumRelations(),
                               .edges = inst.graph().NumEdges()};
      auto knobs = Traits::Knobs(options, c);
      try {
        Rng rng(MixSeed(options.seed, c.fingerprint.lo));
        FaultInjector::Get().MaybeThrow("service.item", i);
        // The canonical instance is built on a miss only: a hit needs
        // nothing but the labels.
        typename Traits::Instance canonical =
            Traits::Permute(inst, c.to_canonical);
        plan = Traits::ToPlan(obs::InstrumentedRun(
            std::string(Traits::kFamily) + "." + entry->name, shape,
            [&] { return entry->run(canonical, knobs, &rng); }));
      } catch (const std::exception&) {
        plan = CachedPlan{};
        plan.status = PlanStatus::kFailed;
      }
      // Only deterministic outcomes are cacheable: complete and
      // budget-exhausted plans are pure functions of (instance, options,
      // seed). Deadline-cut plans depend on the wall clock and failed
      // items must stay retryable — neither may poison the cache.
      if (cache != nullptr && (plan.status == PlanStatus::kComplete ||
                               plan.status == PlanStatus::kBudgetExhausted)) {
        cache->Insert(key, plan);
      }
    }
    out[i].from_cache = hit;
    out[i].fingerprint = c.fingerprint;
    Traits::FromPlan(plan, c.from_canonical, &out[i].result);
    uint64_t item_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - item_start)
            .count());
    ItemHistogram(plan.status, hit).Record(item_us);
    if (slice.armed()) {
      slice.Annotate("fingerprint", FingerprintHex(c.fingerprint));
      slice.Annotate("cache_hit", hit);
      slice.Annotate("status", PlanStatusName(plan.status));
    }
  }
  return out;
}

struct QonTraits {
  using Instance = QonInstance;
  using Item = QonBatchItem;
  static constexpr std::string_view kFamily = "qon";

  static const OptimizerRegistry& Registry() {
    return OptimizerRegistry::Qon();
  }
  static constexpr auto Label = &LabelQon;
  static constexpr auto Permute = &PermuteQonInstance;
  static Hash128 Key(const CanonicalLabels& canon,
                     const QonOptimizerEntry& entry,
                     const BatchOptions& options) {
    return QonPlanCacheKey(canon.fingerprint, entry.name, options.qon,
                           entry.deterministic ? kDeterministicSeed
                                               : options.seed);
  }
  static OptimizerOptions Knobs(const BatchOptions& options,
                                const CanonicalLabels&) {
    return options.qon;
  }
  static CachedPlan ToPlan(const OptimizerResult& r) {
    return CachedPlan{r.feasible, r.sequence, {}, r.cost, r.evaluations,
                      r.status};
  }
  static void FromPlan(const CachedPlan& plan,
                       const std::vector<int>& from_canonical,
                       OptimizerResult* out) {
    out->feasible = plan.feasible;
    out->cost = plan.cost;
    out->evaluations = plan.evaluations;
    out->status = plan.status;
    out->sequence = MapSequenceFromCanonical(plan.sequence, from_canonical);
  }
};

struct QohTraits {
  using Instance = QohInstance;
  using Item = QohBatchItem;
  static constexpr std::string_view kFamily = "qoh";

  static const QohOptimizerRegistry& Registry() {
    return QohOptimizerRegistry::Get();
  }
  static constexpr auto Label = &LabelQoh;
  static constexpr auto Permute = &PermuteQohInstance;
  // The sentinel_first knob names a relation in *caller* labels; the
  // service runs on the canonical instance, so it is remapped per
  // instance — and folded into the cache key in canonical form, which is
  // exactly the form two relabeled duplicates agree on.
  static QohOptimizerOptions Knobs(const BatchOptions& options,
                                   const CanonicalLabels& canon) {
    QohOptimizerOptions knobs = options.qoh;
    if (knobs.sentinel_first >= 0) {
      knobs.sentinel_first =
          canon.to_canonical[static_cast<size_t>(knobs.sentinel_first)];
    }
    return knobs;
  }
  static Hash128 Key(const CanonicalLabels& canon,
                     const QohOptimizerEntry& entry,
                     const BatchOptions& options) {
    return QohPlanCacheKey(canon.fingerprint, entry.name,
                           Knobs(options, canon),
                           entry.deterministic ? kDeterministicSeed
                                               : options.seed);
  }
  static CachedPlan ToPlan(const QohOptimizerResult& r) {
    return CachedPlan{r.feasible, r.sequence, r.decomposition.starts, r.cost,
                      r.evaluations, r.status};
  }
  static void FromPlan(const CachedPlan& plan,
                       const std::vector<int>& from_canonical,
                       QohOptimizerResult* out) {
    out->feasible = plan.feasible;
    out->cost = plan.cost;
    out->evaluations = plan.evaluations;
    out->status = plan.status;
    out->sequence = MapSequenceFromCanonical(plan.sequence, from_canonical);
    // Decompositions are positional (fragment boundaries by join index),
    // so they survive relabeling unchanged.
    out->decomposition.starts = plan.pipeline_starts;
  }
};

}  // namespace

std::vector<QonBatchItem> OptimizeQonBatch(
    const std::vector<QonInstance>& instances, const BatchOptions& options) {
  return RunBatch<QonTraits>(instances, options);
}

std::vector<QohBatchItem> OptimizeQohBatch(
    const std::vector<QohInstance>& instances, const BatchOptions& options) {
  return RunBatch<QohTraits>(instances, options);
}

Hash128 QonPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const OptimizerOptions& options, uint64_t seed) {
  const QonOptimizerEntry* entry = OptimizerRegistry::Qon().Find(optimizer);
  AQO_CHECK(entry != nullptr) << "unknown QO_N optimizer: " << optimizer;
  HashAccumulator acc(kQonKeyTag);
  acc.Add(fingerprint.lo);
  acc.Add(fingerprint.hi);
  AddString(&acc, entry->name);
  acc.Add(options.forbid_cartesian ? 1 : 0);
  acc.Add(static_cast<uint64_t>(options.samples));
  acc.Add(static_cast<uint64_t>(options.restarts));
  acc.Add(static_cast<uint64_t>(options.sa.iterations));
  // The annealing and genetic constants keep the slots of the knobs they
  // replaced, as the retired bnb_node_limit keeps its slot below, so old
  // keys stay valid.
  acc.AddDouble(kSaInitialTemperature);
  acc.AddDouble(kSaCooling);
  acc.Add(static_cast<uint64_t>(options.sa.restarts));
  acc.Add(static_cast<uint64_t>(options.ga.population));
  acc.Add(static_cast<uint64_t>(options.ga.generations));
  acc.AddDouble(kGaCrossoverRate);
  acc.AddDouble(kGaMutationRate);
  acc.Add(static_cast<uint64_t>(kGaTournament));
  acc.Add(static_cast<uint64_t>(kGaElites));
  // The slot of the retired bnb_node_limit knob: 0 keeps old keys valid.
  acc.Add(uint64_t{0});
  // Deterministic eval cap: different caps yield different (valid)
  // best-so-far plans, so they must not alias. Deadlines are deliberately
  // absent — deadline-cut plans are never inserted in the first place.
  acc.Add(options.budget.max_evaluations);
  acc.Add(seed);
  return acc.Digest();
}

Hash128 QohPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const QohOptimizerOptions& options, uint64_t seed) {
  const QohOptimizerEntry* entry = QohOptimizerRegistry::Get().Find(optimizer);
  AQO_CHECK(entry != nullptr) << "unknown QO_H optimizer: " << optimizer;
  HashAccumulator acc(kQohKeyTag);
  acc.Add(fingerprint.lo);
  acc.Add(fingerprint.hi);
  AddString(&acc, entry->name);
  acc.Add(static_cast<uint64_t>(options.samples));
  acc.Add(static_cast<uint64_t>(options.restarts));
  acc.Add(static_cast<uint64_t>(
      static_cast<int64_t>(options.sentinel_first)));
  acc.Add(static_cast<uint64_t>(options.sa.iterations));
  // The annealing constants keep their knobs' slots (see QonPlanCacheKey).
  acc.AddDouble(kQohSaInitialTemperature);
  acc.AddDouble(kQohSaCooling);
  acc.Add(static_cast<uint64_t>(options.sa.restarts));
  // See QonPlanCacheKey: the eval cap shapes the cached plan bits.
  acc.Add(options.budget.max_evaluations);
  acc.Add(seed);
  return acc.Digest();
}

}  // namespace aqo
