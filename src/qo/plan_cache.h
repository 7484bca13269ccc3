#ifndef AQO_QO_PLAN_CACHE_H_
#define AQO_QO_PLAN_CACHE_H_

// Sharded, thread-safe plan cache keyed by canonical instance
// fingerprints (qo/fingerprint.h).
//
// Entries live in canonical labels: a hit returns the plan for the
// *canonical* instance, and the caller maps the sequence back through its
// own relabeling permutation (MapSequenceFromCanonical). Keys must also
// fold in everything else the result depends on — optimizer name, knob
// values, and the RNG seed for stochastic optimizers — so that a hit is
// guaranteed to return exactly the bits a fresh computation would produce
// (see PlanCacheKey in qo/service.h). That guarantee is what lets the
// batch service treat the cache as a pure memo: results are bit-identical
// whether the cache is on, off, or shared across threads.
//
// Concurrency: keys are partitioned across shards by fingerprint bits;
// each shard is an independent LRU list + hash map under its own mutex.
// Byte accounting is per shard (budget divided evenly), so eviction
// decisions never need a global lock.
//
// Telemetry: GetStats() holds this cache's hit, miss, insert and eviction
// totals; LogConfig/LogStats emit `plan_cache_config` /
// `plan_cache_stats` records to the global run log so a JSONL consumer
// can recover the cache configuration and hit rate of any run (the CI
// smoke asserts on them). Probes and inserts also record into the
// qo.plan_cache.{probe_us,insert_us} histograms.

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qo/join_sequence.h"
#include "util/cancellation.h"
#include "util/hash.h"
#include "util/log_double.h"

namespace aqo {

struct PlanCacheOptions {
  size_t byte_budget = 64ull << 20;  // 64 MiB
  int shards = 16;
};

// A cached optimization result, in canonical labels. `pipeline_starts`
// carries the QO_H decomposition (empty for QO_N); decompositions are
// positional, so they need no label mapping.
struct CachedPlan {
  bool feasible = false;
  JoinSequence sequence;
  std::vector<int> pipeline_starts;
  LogDouble cost;
  uint64_t evaluations = 0;
  // Cacheable statuses are kComplete and kBudgetExhausted only — both are
  // deterministic functions of (instance, options, seed). The service
  // never inserts kDeadlineExceeded (wall-clock dependent) or kFailed
  // plans (see qo/service.cc).
  PlanStatus status = PlanStatus::kComplete;
};

class PlanCache {
 public:
  explicit PlanCache(const PlanCacheOptions& options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // On hit copies the plan into *out, refreshes LRU recency, and returns
  // true. `out` may be null (probe only).
  bool Lookup(const Hash128& key, CachedPlan* out);

  // Inserts (or refreshes) `plan` under `key`, evicting least-recently
  // used entries of the same shard until the shard's byte share is
  // respected. Plans larger than a whole shard are not cached.
  void Insert(const Hash128& key, const CachedPlan& plan);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  Stats GetStats() const;

  const PlanCacheOptions& options() const { return options_; }

  // Called after every successful *new* insert (not refreshes, oversize
  // rejections, or fault-dropped inserts), outside the shard lock, with
  // the key and the plan as stored. This is the write-through hook the
  // persistence layer attaches (qo/persist.h: every insert is appended to
  // the journal). Set once, before concurrent use; pass nullptr to clear.
  using InsertObserver =
      std::function<void(const Hash128& key, const CachedPlan& plan)>;
  void SetInsertObserver(InsertObserver observer);

  // All entries in a deterministic order: shards by index, each shard's
  // LRU list from least to most recently used. Re-Insert()ing the result
  // into an empty cache in order therefore reproduces both the contents
  // and the recency structure — this is what SaveSnapshot persists.
  std::vector<std::pair<Hash128, CachedPlan>> Export() const;

  // Emits a `plan_cache_config` record to the global run log (no-op
  // without one).
  void LogConfig() const;
  // Emits a `plan_cache_stats` record with current totals and hit rate.
  void LogStats() const;

 private:
  struct Entry {
    Hash128 key;
    CachedPlan plan;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Hash128, std::list<Entry>::iterator, Hash128Hasher>
        index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Hash128& key) {
    return *shards_[static_cast<size_t>(key.hi) % shards_.size()];
  }

  PlanCacheOptions options_;
  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  InsertObserver insert_observer_;

  // Per-instance totals, read through GetStats().
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  // Insert *attempts* (including refreshes and oversize rejections):
  // the deterministic ordinal for the "plan_cache.insert" fault site.
  std::atomic<uint64_t> insert_attempts_{0};
};

}  // namespace aqo

#endif  // AQO_QO_PLAN_CACHE_H_
