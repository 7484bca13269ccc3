// Crash-point sweep for plan-cache persistence (qo/persist.h): for every
// fault ordinal at every persist site ("persist.append", "persist.fsync",
// "persist.snapshot"), and for thread counts {1, 2, 4}, simulate the
// crash, recover the state directory into a fresh cache, and assert that
// service batch results through the recovered cache are bit-identical to
// a cold-cache computation.
//
// The sweep is exhaustive by construction rather than by a hard-coded
// count: ordinals are tried from 0 upward until a run completes with no
// fault fired (store.failed() == false), which proves the previous
// ordinal was the last live probe. Fault ordinals come from per-store
// counters driven by the service's serial insert order, so "crash at
// append #k" means the same bytes hit disk for every thread count — that
// is what makes the recovery assertion meaningful across {1, 2, 4}.

#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

// Safety net only; the sweep normally terminates by observing a
// fault-free run long before this.
constexpr uint64_t kMaxOrdinal = 64;

std::vector<QonInstance> SweepInstances() {
  std::vector<QonInstance> instances;
  for (int b = 0; b < 4; ++b) {
    Rng rng(MixSeed(1234, static_cast<uint64_t>(b)));
    instances.push_back(RandomQonWorkload(7, &rng));
  }
  // Two relabeled duplicates: cache hits inside the crashing run itself,
  // so the journal sees fewer appends than there are batch items.
  std::vector<int> perm = {2, 5, 0, 6, 1, 4, 3};
  instances.push_back(PermuteQonInstance(instances[0], perm));
  instances.push_back(PermuteQonInstance(instances[2], perm));
  return instances;
}

void ExpectBitIdentical(const std::vector<QonBatchItem>& got,
                        const std::vector<QonBatchItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].result.feasible, want[i].result.feasible);
    EXPECT_EQ(got[i].result.sequence, want[i].result.sequence);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].result.cost.Log2()),
              std::bit_cast<uint64_t>(want[i].result.cost.Log2()));
    EXPECT_EQ(got[i].result.evaluations, want[i].result.evaluations);
    EXPECT_EQ(got[i].result.status, want[i].result.status);
  }
}

std::string SweepDir(const char* site, uint64_t ordinal, int threads) {
  std::string dir = testing::TempDir() + "aqo_crash_" + site + "_" +
                    std::to_string(ordinal) + "_t" + std::to_string(threads);
  for (char& c : dir) {
    if (c == '.') c = '_';
  }
  std::filesystem::remove_all(dir);
  return dir;
}

class PersistCrashSweep : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Get().Disarm(); }
};

void RunSweep(const char* site) {
  std::vector<QonInstance> instances = SweepInstances();
  BatchOptions base;
  base.optimizer = "dp";
  base.seed = 11;

  // Cold truth, computed once with no cache and no pool.
  std::vector<QonBatchItem> cold = OptimizeQonBatch(instances, base);

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    bool swept_past_last_probe = false;
    for (uint64_t ordinal = 0; ordinal <= kMaxOrdinal; ++ordinal) {
      SCOPED_TRACE(std::string(site) + " ordinal " +
                   std::to_string(ordinal) + " threads " +
                   std::to_string(threads));
      std::string dir = SweepDir(site, ordinal, threads);

      // The crashing run: cache with write-through persistence, fault
      // armed at (site, ordinal), a batch, then a snapshot rotation so
      // the "persist.snapshot" site has probes to hit.
      bool fired;
      {
        PlanCache cache(
            PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
        // These faults simulate process death, and a dead process never
        // probes. The run makes at most five write attempts (four
        // appends and a snapshot), fewer than the eight refused writes
        // the first probe waits for, so a tripped store stays tripped to
        // the end of the run. Breaker recovery from *transient* faults is
        // covered in persist_test.cc.
        PlanStore store(
            PersistOptions{.dir = dir, .fsync = true, .breaker = {}});
        store.AttachTo(&cache);
        FaultInjector::Get().Arm(site, ordinal);
        BatchOptions options = base;
        options.cache = &cache;
        options.pool = threads > 1 ? &pool : nullptr;
        std::vector<QonBatchItem> crashed =
            OptimizeQonBatch(instances, options);
        store.SaveSnapshot(cache);
        FaultInjector::Get().Disarm();
        fired = store.failed();
        EXPECT_EQ(store.breaker_probes(), 0u);
        EXPECT_LE(store.breaker_trips(), 1u);
        // Even while the store is dying, the service's answers stay
        // bit-identical — persistence failures never leak into results.
        ExpectBitIdentical(crashed, cold);
      }

      // Recovery: whatever prefix reached disk must load cleanly...
      PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
      PlanStore reader(PersistOptions{.dir = dir, .fsync = false});
      ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
      ASSERT_TRUE(stats.ok()) << stats.error;
      // ...and a batch through the recovered cache must reproduce the
      // cold results bit-for-bit (hits replay persisted bits, misses
      // recompute — indistinguishable by contract).
      BatchOptions warm_options = base;
      warm_options.cache = &warm;
      warm_options.pool = threads > 1 ? &pool : nullptr;
      ExpectBitIdentical(OptimizeQonBatch(instances, warm_options), cold);

      std::filesystem::remove_all(dir);
      if (!fired) {
        // No probe carried this ordinal: every live crash point at this
        // site has now been swept.
        swept_past_last_probe = true;
        EXPECT_GT(ordinal, 0u) << "site never fired — wrong site name?";
        break;
      }
    }
    EXPECT_TRUE(swept_past_last_probe)
        << site << ": still firing at ordinal " << kMaxOrdinal;
  }
}

TEST_F(PersistCrashSweep, AppendCrashAtEveryOrdinal) {
  RunSweep("persist.append");
}

TEST_F(PersistCrashSweep, FsyncFailureAtEveryOrdinal) {
  RunSweep("persist.fsync");
}

TEST_F(PersistCrashSweep, SnapshotCrashAtEveryOrdinal) {
  RunSweep("persist.snapshot");
}

}  // namespace
}  // namespace aqo
