#include "qo/plan_cache.h"

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace aqo {

namespace {

// Approximate resident size of one entry: the plan's heap payload plus a
// flat estimate of the list node + hash-map slot bookkeeping.
size_t PlanBytes(const CachedPlan& plan) {
  constexpr size_t kBookkeeping = 128;
  return kBookkeeping + sizeof(CachedPlan) +
         plan.sequence.capacity() * sizeof(int) +
         plan.pipeline_starts.capacity() * sizeof(int);
}

}  // namespace

PlanCache::PlanCache(const PlanCacheOptions& options) : options_(options) {
  AQO_CHECK(options_.shards >= 1);
  AQO_CHECK(options_.byte_budget > 0);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = options_.byte_budget / shards_.size();
  AQO_CHECK(shard_budget_ > 0) << "byte budget smaller than shard count";
}

bool PlanCache::Lookup(const Hash128& key, CachedPlan* out) {
  static obs::Histogram& probe_us =
      obs::Registry::Get().GetHistogram("qo.plan_cache.probe_us");
  obs::ScopedLatencyTimer timer(probe_us);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (out != nullptr) *out = it->second->plan;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PlanCache::Insert(const Hash128& key, const CachedPlan& plan) {
  static obs::Histogram& insert_us =
      obs::Registry::Get().GetHistogram("qo.plan_cache.insert_us");
  obs::ScopedLatencyTimer timer(insert_us);
  // Fault site "plan_cache.insert": the k-th insert *attempt* on this
  // cache instance is dropped. Dropping an insert is the cache's graceful
  // degradation — results stay correct, later probes just miss. The
  // attempt counter (not the success counter) keys the ordinal so refresh
  // and oversize paths count too; the service performs inserts serially
  // in representative order, keeping the ordinal deterministic.
  uint64_t attempt = insert_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (FaultInjector::Get().ShouldFail("plan_cache.insert", attempt)) return;
  size_t bytes = PlanBytes(plan);
  if (bytes > shard_budget_) return;  // would evict an entire shard
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: same key implies the same plan bits (the key folds in the
      // fingerprint, optimizer, knobs and seed), so only recency moves.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.push_front(Entry{key, plan, bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  // Write-through hook, outside the shard lock so the observer may do
  // I/O without serializing sibling shards (qo/persist.h).
  if (insert_observer_) insert_observer_(key, plan);
}

void PlanCache::SetInsertObserver(InsertObserver observer) {
  insert_observer_ = std::move(observer);
}

std::vector<std::pair<Hash128, CachedPlan>> PlanCache::Export() const {
  std::vector<std::pair<Hash128, CachedPlan>> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Reverse LRU order: re-inserting front-to-back of `out` leaves the
    // most recently used entry at the front again.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      out.emplace_back(it->key, it->plan);
    }
  }
  return out;
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

void PlanCache::LogConfig() const {
  obs::RunLog* log = obs::RunLog::Global();
  if (log == nullptr) return;
  obs::JsonValue record = obs::JsonValue::Object();
  record["type"] = "plan_cache_config";
  record["byte_budget"] = static_cast<uint64_t>(options_.byte_budget);
  record["shards"] = static_cast<int64_t>(options_.shards);
  record["shard_budget"] = static_cast<uint64_t>(shard_budget_);
  log->Write(record);
}

void PlanCache::LogStats() const {
  obs::RunLog* log = obs::RunLog::Global();
  if (log == nullptr) return;
  Stats stats = GetStats();
  obs::JsonValue record = obs::JsonValue::Object();
  record["type"] = "plan_cache_stats";
  record["hits"] = stats.hits;
  record["misses"] = stats.misses;
  record["inserts"] = stats.inserts;
  record["evictions"] = stats.evictions;
  record["entries"] = stats.entries;
  record["bytes"] = stats.bytes;
  uint64_t probes = stats.hits + stats.misses;
  record["hit_rate"] =
      probes == 0 ? 0.0
                  : static_cast<double>(stats.hits) /
                        static_cast<double>(probes);
  log->Write(record);
}

}  // namespace aqo
