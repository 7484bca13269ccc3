#ifndef AQO_E2EBENCH_REPLAY_SERVE_H_
#define AQO_E2EBENCH_REPLAY_SERVE_H_

// In-process replay of aqo_serve's request path through the layers'
// public functions, one span per layer call:
//
//   io.parse           header split + ParseQ*Instance
//   fingerprint.canon  CanonicalizeQ*
//   plan_cache.probe   Q*PlanCacheKey + PlanCache::Lookup
//   optimizer.<f>.<o>  registry Run on the canonical instance with
//                      Rng(MixSeed(seed, fingerprint.lo)), misses only
//   plan_cache.insert  PlanCache::Insert
//   persist.append     PlanStore::AppendEntry (new inserts only)
//   fingerprint.map    MapSequenceFromCanonical
//   io.encode          response text + WriteFrame
//
// In batch mode the replay instead sends each parsed instance through
// OptimizeQ*Batch, the call aqo_serve makes, on a cache with the journal
// attached as aqo_serve wires it; the batch service's own overhead is
// that call's time minus the layer calls it makes.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "trace.h"

namespace e2ebench {

// aqo_serve's plan-cache configuration for both serve workloads. The
// budget sits below serve_cold's distinct-plan footprint, so its LRU
// evicts; serve_hot's pool fits.
inline constexpr int kPlanCacheMb = 1;
inline constexpr int kPlanCacheShards = 16;
inline constexpr uint64_t kServeSeed = 1;

aqo::PlanCacheOptions ServeCacheOptions();

// Counter totals read around the replay's own layer calls.
struct ReplayCounters {
  uint64_t pipeline_evals = 0;   // qoh.decomp.pipeline_evals
  uint64_t fast_candidates = 0;  // qo.fast_eval.candidates
  uint64_t fast_repricings = 0;  // qo.fast_eval.exact_repricings
  uint64_t appends = 0;          // qo.persist.appends
  uint64_t append_bytes = 0;     // qo.persist.append_bytes
  uint64_t fsyncs = 0;           // qo.persist.fsyncs

  static ReplayCounters Read();
  void AddDelta(const ReplayCounters& before, const ReplayCounters& after);
};

class ServeReplay {
 public:
  // Journal in `dir`, first filled from `prefill_dir` when non-empty and
  // recovered, as aqo_serve recovers its --cache-dir.
  ServeReplay(const std::string& dir, const std::string& prefill_dir,
              bool batch_mode);

  ServeReplay(const ServeReplay&) = delete;
  ServeReplay& operator=(const ServeReplay&) = delete;

  // Null stops recording spans (e.g. for serve_hot's warm pass).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Handles one request payload as aqo_serve does; returns the response.
  std::string Handle(const std::string& payload, int64_t op);

  // Wall time of the last Handle.
  int64_t last_request_ns() const { return last_request_ns_; }
  // Total time inside OptimizeQ*Batch (batch mode).
  int64_t batch_ns() const { return batch_ns_; }

  const ReplayCounters& counters() const { return counters_; }
  // Evaluations reported per optimizer span name.
  const std::map<std::string, uint64_t>& evaluations() const {
    return evaluations_;
  }
  aqo::PlanCache::Stats CacheStats() const { return cache_.GetStats(); }

 private:
  template <typename Family>
  std::string Serve(const typename Family::Instance& inst,
                    const std::string& id, const std::string& optimizer,
                    int64_t op);
  template <typename Family>
  std::string Batch(const typename Family::Instance& inst,
                    const std::string& id, const std::string& optimizer);

  bool batch_mode_;
  Tracer* tracer_ = nullptr;
  aqo::PlanCache cache_;
  std::unique_ptr<aqo::PlanStore> store_;
  bool inserted_ = false;
  int64_t batch_ns_ = 0;
  int64_t last_request_ns_ = 0;
  ReplayCounters counters_;
  std::map<std::string, uint64_t> evaluations_;
};

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_REPLAY_SERVE_H_
