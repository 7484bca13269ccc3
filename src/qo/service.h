#ifndef AQO_QO_SERVICE_H_
#define AQO_QO_SERVICE_H_

// Batch optimization service: optimize instances one at a time in batch
// order, consulting a PlanCache first.
//
// Determinism contract:
//
//   * Every instance is optimized on its *canonical* form
//     (qo/fingerprint.h) with an Rng seeded Rng(MixSeed(options.seed,
//     fingerprint.lo)). Relabeled duplicates therefore share both the
//     exact problem bytes and the exact RNG stream, so they produce
//     bit-identical canonical results by construction — the cache merely
//     memoizes what recomputation would reproduce anyway. That is why
//     results are bit-identical (costs, sequences, evaluation counts)
//     whether the cache is on, off, cold, warm, or shared
//     (tests/service_differential_test.cc). The cache is keyed on the
//     label step's fingerprint, and the canonical instance is the only
//     instance an item builds, on a miss only.
//   * Cache probes, inserts and run-log records follow instance order, so
//     the cache's GetStats() totals and the run-log record stream of a
//     batch are deterministic too.
//
// Sequences returned to the caller are mapped back from canonical labels
// through the instance's own relabeling permutation; both cost models
// evaluate sequences in strict position order, so the mapped-back
// sequence costs bitwise the same as the canonical one.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qo/fingerprint.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"

namespace aqo {

struct BatchOptions {
  // Registry name of the optimizer to run (qo/registry.h).
  std::string optimizer = "dp";

  // Knobs for the selected optimizer (family-appropriate struct).
  OptimizerOptions qon;
  QohOptimizerOptions qoh;

  // Base seed: instance i's stream is Rng(MixSeed(seed, fingerprint.lo)).
  uint64_t seed = 0;

  // Consult/populate this cache when set. Never changes any result bit.
  // Plans cut by a wall-clock deadline (qon.budget / qoh.budget
  // .deadline_ms) are never inserted: they depend on the clock.
  PlanCache* cache = nullptr;
};

// Per-item fault isolation: an item whose optimizer throws (or trips an
// injected fault, util/fault_injection.h) yields an infeasible result with
// result.status == PlanStatus::kFailed for that item only — sibling
// items, the cache, and counter totals are unaffected.
struct QonBatchItem {
  OptimizerResult result;  // in the caller's labels
  bool from_cache = false;
  Hash128 fingerprint;
};

struct QohBatchItem {
  QohOptimizerResult result;
  bool from_cache = false;
  Hash128 fingerprint;
};

std::vector<QonBatchItem> OptimizeQonBatch(
    const std::vector<QonInstance>& instances, const BatchOptions& options);

std::vector<QohBatchItem> OptimizeQohBatch(
    const std::vector<QohInstance>& instances, const BatchOptions& options);

// The same batch over flat forms (qo/flat_instance.h), as the readers
// return them: a hit builds no instance, and a miss builds only the
// canonical one. Both overloads run one item loop, and an instance and
// its flat form get the same item.
std::vector<QonBatchItem> OptimizeQonBatch(std::span<const FlatQon> instances,
                                           const BatchOptions& options);

std::vector<QohBatchItem> OptimizeQohBatch(std::span<const FlatQoh> instances,
                                           const BatchOptions& options);

// The full cache key: instance fingerprint + problem family + optimizer
// name + every knob the result depends on + the seed (deterministic
// optimizers fold a fixed sentinel instead, so their entries are shared
// across seeds). CHECK-fails on unknown optimizer names.
Hash128 QonPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const OptimizerOptions& options, uint64_t seed);
Hash128 QohPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const QohOptimizerOptions& options, uint64_t seed);

}  // namespace aqo

#endif  // AQO_QO_SERVICE_H_
