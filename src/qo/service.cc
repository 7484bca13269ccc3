#include "qo/service.h"

#include <exception>
#include <unordered_map>
#include <utility>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace aqo {

namespace {

void AddString(HashAccumulator* acc, std::string_view s) {
  acc->Add(s.size());
  for (char c : s) acc->Add(static_cast<uint64_t>(static_cast<uint8_t>(c)));
}

constexpr uint64_t kQonKeyTag = 0x716f6e5f6b657931ULL;
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

// Runs items [0, count) through `fn`, on the pool when it helps. The pool
// never changes results: every fn(i) is a pure function of i.
template <typename Fn>
void ForEach(ThreadPool* pool, size_t count, const Fn& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    pool->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

// Shared batch skeleton for both families. `Traits` supplies the
// family-specific pieces; the phase structure (canonicalize in parallel,
// probe serially, compute misses in parallel, replay logs + insert +
// resolve duplicates serially) is identical.
template <typename Traits>
std::vector<typename Traits::Item> RunBatch(
    const std::vector<typename Traits::Instance>& instances,
    const BatchOptions& options) {
  const auto* entry = Traits::Registry().Find(options.optimizer);
  AQO_CHECK(entry != nullptr)
      << "unknown " << Traits::kFamily << " optimizer: " << options.optimizer;
  PlanCache* cache = options.cache;

  size_t count = instances.size();
  std::vector<typename Traits::Canonical> canon(count);
  ForEach(options.pool, count,
          [&](size_t i) { canon[i] = Traits::Canonicalize(instances[i]); });

  std::vector<Hash128> keys(count);
  for (size_t i = 0; i < count; ++i) {
    keys[i] = Traits::Key(canon[i], *entry, options);
  }

  // One representative per distinct key, in first-occurrence order. With
  // no cache attached every instance is its own representative: the
  // cache-off path is the undeduplicated baseline the differential test
  // compares against (the results are bit-identical either way, since
  // duplicates share canonical bytes and RNG stream).
  std::vector<size_t> reps;
  std::vector<size_t> rep_slot(count);
  if (cache != nullptr) {
    std::unordered_map<Hash128, size_t, Hash128Hasher> slot_of;
    slot_of.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      auto [it, fresh] = slot_of.try_emplace(keys[i], reps.size());
      if (fresh) reps.push_back(i);
      rep_slot[i] = it->second;
    }
  } else {
    reps.resize(count);
    for (size_t i = 0; i < count; ++i) {
      reps[i] = i;
      rep_slot[i] = i;
    }
  }

  // Serial cache probes: deterministic hit/miss counter totals.
  std::vector<CachedPlan> plans(reps.size());
  std::vector<char> hit(reps.size(), 0);
  if (cache != nullptr) {
    for (size_t r = 0; r < reps.size(); ++r) {
      hit[r] = cache->Lookup(keys[reps[r]], &plans[r]) ? 1 : 0;
    }
  }

  // Compute the misses, each under its own run-log buffer and its own
  // fingerprint-derived RNG stream.
  //
  // Per-item isolation: a throwing item (real exception or the
  // "service.item" fault site, keyed by the item's instance index so the
  // ordinal is thread-schedule independent) is retried once with the same
  // RNG stream and a fresh run-log buffer; a second failure marks that
  // item kFailed (infeasible, no run record, never cached) and leaves
  // every sibling untouched. The pool propagates nothing: failures are
  // absorbed inside the lambda.
  static obs::Counter& retries =
      obs::Registry::Get().GetCounter("qo.service.retries");
  static obs::Counter& failures =
      obs::Registry::Get().GetCounter("qo.service.failures");
  std::vector<std::string> logs(reps.size());
  ForEach(options.pool, reps.size(), [&](size_t r) {
    if (hit[r]) return;
    const auto& c = canon[reps[r]];
    // One trace slice and one latency sample per computed item, covering
    // the whole attempt (retry included) — the latency a caller of this
    // item actually saw. Cache-hit and duplicate items get theirs in the
    // resolve loop, so slices sum to exactly the batch size.
    obs::TraceSpan slice("qo.service.item", "service");
    auto item_start = std::chrono::steady_clock::now();
    obs::InstanceShape shape{.family = std::string(Traits::kFamily),
                             .kind = "batch",
                             .side = "",
                             .source = "",
                             .n = c.instance.NumRelations(),
                             .edges = c.instance.graph().NumEdges()};
    auto knobs = Traits::Knobs(options, c);
    auto attempt = [&] {
      obs::RunLogBuffer buffer;
      Rng rng(MixSeed(options.seed, c.fingerprint.lo));
      FaultInjector::Get().MaybeThrow("service.item", reps[r]);
      auto result = obs::InstrumentedRun(
          std::string(Traits::kFamily) + "." + entry->name, shape,
          [&] { return entry->run(c.instance, knobs, &rng); });
      plans[r] = Traits::ToPlan(result);
      logs[r] = buffer.Take();
    };
    try {
      attempt();
    } catch (const std::exception&) {
      retries.Increment();
      try {
        attempt();
      } catch (const std::exception&) {
        failures.Increment();
        CachedPlan failed;
        failed.status = PlanStatus::kFailed;
        plans[r] = failed;
        logs[r].clear();
      }
    }
    uint64_t item_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - item_start)
            .count());
    ItemHistogram(plans[r].status, /*cache_hit=*/false).Record(item_us);
    if (slice.armed()) {
      slice.Annotate("fingerprint", FingerprintHex(c.fingerprint));
      slice.Annotate("cache_hit", false);
      slice.Annotate("status", PlanStatusName(plans[r].status));
    }
  });

  // Replay buffered records in representative (= first occurrence) order,
  // then populate the cache serially in the same order so LRU state and
  // eviction decisions are scheduling-independent.
  if (obs::RunLog::Global() != nullptr) {
    for (const std::string& text : logs) {
      if (!text.empty()) obs::RunLog::Global()->WriteRaw(text);
    }
  }
  if (cache != nullptr) {
    for (size_t r = 0; r < reps.size(); ++r) {
      if (hit[r]) continue;
      // Only deterministic outcomes are cacheable: complete and
      // budget-exhausted plans are pure functions of (instance, options,
      // seed). Deadline-cut plans depend on the wall clock and failed
      // items must stay retryable — neither may poison the cache.
      if (plans[r].status != PlanStatus::kComplete &&
          plans[r].status != PlanStatus::kBudgetExhausted) {
        continue;
      }
      cache->Insert(keys[reps[r]], plans[r]);
    }
  }

  // Resolve every instance from its representative's plan. In-batch
  // duplicates probe the cache (serially) so the hit counters reflect
  // the work the cache actually saved.
  std::vector<typename Traits::Item> out(count);
  for (size_t i = 0; i < count; ++i) {
    size_t r = rep_slot[i];
    // Computed misses already got their slice and latency sample in the
    // compute loop; everything else (probe hits and in-batch duplicates)
    // is served here, and its cost is the resolve itself.
    bool served_here = !(i == reps[r] && !hit[r]);
    obs::TraceSpan slice(served_here ? "qo.service.item" : "qo.service.resolve",
                         "service");
    auto item_start = std::chrono::steady_clock::now();
    bool from_cache = hit[r] != 0;
    if (cache != nullptr && i != reps[r]) {
      from_cache = cache->Lookup(keys[i], nullptr);
    }
    out[i].from_cache = from_cache;
    out[i].fingerprint = canon[i].fingerprint;
    Traits::FromPlan(plans[r], canon[i].from_canonical, &out[i].result);
    if (served_here) {
      uint64_t item_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - item_start)
              .count());
      ItemHistogram(plans[r].status, /*cache_hit=*/true).Record(item_us);
    }
    if (slice.armed()) {
      slice.Annotate("fingerprint", FingerprintHex(canon[i].fingerprint));
      slice.Annotate("cache_hit", from_cache);
      slice.Annotate("status", PlanStatusName(plans[r].status));
    }
  }
  return out;
}

struct QonTraits {
  using Instance = QonInstance;
  using Canonical = CanonicalQon;
  using Item = QonBatchItem;
  static constexpr std::string_view kFamily = "qon";

  static const OptimizerRegistry& Registry() {
    return OptimizerRegistry::Qon();
  }
  static CanonicalQon Canonicalize(const QonInstance& inst) {
    return CanonicalizeQon(inst);
  }
  static Hash128 Key(const CanonicalQon& canon,
                     const QonOptimizerEntry& entry,
                     const BatchOptions& options) {
    return QonPlanCacheKey(canon.fingerprint, entry.name, options.qon,
                           entry.deterministic ? kDeterministicSeed
                                               : options.seed);
  }
  static OptimizerOptions Knobs(const BatchOptions& options,
                                const CanonicalQon&) {
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
  using Canonical = CanonicalQoh;
  using Item = QohBatchItem;
  static constexpr std::string_view kFamily = "qoh";

  static const QohOptimizerRegistry& Registry() {
    return QohOptimizerRegistry::Get();
  }
  static CanonicalQoh Canonicalize(const QohInstance& inst) {
    return CanonicalizeQoh(inst);
  }
  // The sentinel_first knob names a relation in *caller* labels; the
  // service runs on the canonical instance, so it is remapped per
  // instance — and folded into the cache key in canonical form, which is
  // exactly the form two relabeled duplicates agree on.
  static QohOptimizerOptions Knobs(const BatchOptions& options,
                                   const CanonicalQoh& canon) {
    QohOptimizerOptions knobs = options.qoh;
    if (knobs.sentinel_first >= 0) {
      knobs.sentinel_first =
          canon.to_canonical[static_cast<size_t>(knobs.sentinel_first)];
    }
    return knobs;
  }
  static Hash128 Key(const CanonicalQoh& canon,
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
  acc.AddDouble(options.sa.initial_temperature);
  acc.AddDouble(options.sa.cooling);
  acc.Add(static_cast<uint64_t>(options.sa.restarts));
  acc.Add(static_cast<uint64_t>(options.ga.population));
  acc.Add(static_cast<uint64_t>(options.ga.generations));
  acc.AddDouble(options.ga.crossover_rate);
  acc.AddDouble(options.ga.mutation_rate);
  acc.Add(static_cast<uint64_t>(options.ga.tournament));
  acc.Add(static_cast<uint64_t>(options.ga.elites));
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
  acc.AddDouble(options.sa.initial_temperature);
  acc.AddDouble(options.sa.cooling);
  acc.Add(static_cast<uint64_t>(options.sa.restarts));
  // See QonPlanCacheKey: the eval cap shapes the cached plan bits.
  acc.Add(options.budget.max_evaluations);
  acc.Add(seed);
  return acc.Digest();
}

}  // namespace aqo
