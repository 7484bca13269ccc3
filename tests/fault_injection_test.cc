// Fault-injection proofs for the batch service (qo/service.h) and the
// plan cache, driven by the deterministic injector
// (util/fault_injection.h):
//
//   * an injected per-item fault marks that item kFailed while every
//     sibling item stays bit-identical, with the cache on or off, and the
//     failed item stays retryable;
//   * a dropped cache insert degrades gracefully: results never change,
//     later probes just miss.
//
// Ordinals come from program structure (batch item index, per-cache
// insert sequence), so every scenario reproduces bit-identically.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr uint64_t kSeed = 7;

// Distinct (non-duplicate) instances, so every item computes: the
// "service.item" ordinal is the item index.
std::vector<QonInstance> DistinctInstances() {
  Rng rng(51);
  std::vector<QonInstance> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(RandomQonWorkload(6 + (i % 3), &rng));
  }
  return batch;
}

BatchOptions BaseOptions() {
  BatchOptions options;
  options.optimizer = "sa";  // stochastic: siblings keep their own streams
  options.qon.sa.iterations = 200;
  options.qon.sa.restarts = 1;
  options.seed = kSeed;
  return options;
}

void ExpectItemBits(const QonBatchItem& want, const QonBatchItem& got,
                    const std::string& label) {
  EXPECT_EQ(want.result.feasible, got.result.feasible) << label;
  EXPECT_EQ(want.result.cost.Log2(), got.result.cost.Log2()) << label;
  EXPECT_EQ(want.result.sequence, got.result.sequence) << label;
  EXPECT_EQ(want.result.evaluations, got.result.evaluations) << label;
  EXPECT_EQ(want.result.status, got.result.status) << label;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Get().Disarm(); }
  void TearDown() override { FaultInjector::Get().Disarm(); }
};

TEST_F(FaultInjectionTest, SingleShotFaultFailsOnlyTheVictim) {
  std::vector<QonInstance> batch = DistinctInstances();
  BatchOptions options = BaseOptions();
  std::vector<QonBatchItem> reference = OptimizeQonBatch(batch, options);

  constexpr uint64_t kVictim = 2;
  FaultInjector::Get().Arm("service.item", kVictim, /*times=*/1);
  std::vector<QonBatchItem> got = OptimizeQonBatch(batch, options);
  FaultInjector::Get().Disarm();

  // The item fails at its first throw; every sibling is bit-equal.
  ASSERT_EQ(got.size(), reference.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (i == kVictim) {
      EXPECT_FALSE(got[i].result.feasible);
      EXPECT_EQ(got[i].result.status, PlanStatus::kFailed);
      continue;
    }
    ExpectItemBits(reference[i], got[i], "sibling " + std::to_string(i));
    EXPECT_EQ(got[i].result.status, PlanStatus::kComplete);
  }
}

TEST_F(FaultInjectionTest, PermanentFaultFailsOnlyTheVictim) {
  std::vector<QonInstance> batch = DistinctInstances();
  BatchOptions options = BaseOptions();
  std::vector<QonBatchItem> reference = OptimizeQonBatch(batch, options);

  constexpr uint64_t kVictim = 3;
  for (bool use_cache : {false, true}) {
    PlanCache cache;
    options.cache = use_cache ? &cache : nullptr;
    std::string label = std::string("cache=") + (use_cache ? "on" : "off");

    FaultInjector::Get().Arm("service.item", kVictim, /*times=*/2);
    std::vector<QonBatchItem> got = OptimizeQonBatch(batch, options);
    FaultInjector::Get().Disarm();

    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      if (i == kVictim) {
        EXPECT_FALSE(got[i].result.feasible) << label;
        EXPECT_EQ(got[i].result.status, PlanStatus::kFailed) << label;
        continue;
      }
      ExpectItemBits(reference[i], got[i],
                     label + " sibling " + std::to_string(i));
    }

    if (use_cache) {
      // kFailed is never cached, so the victim stays retryable: the
      // next (fault-free) run through the same cache recomputes it and
      // matches the reference bit for bit.
      std::vector<QonBatchItem> healed = OptimizeQonBatch(batch, options);
      for (size_t i = 0; i < healed.size(); ++i) {
        ExpectItemBits(reference[i], healed[i],
                       label + " healed " + std::to_string(i));
      }
      EXPECT_FALSE(got[kVictim].from_cache) << label;
    }
    options.cache = nullptr;
  }
}

TEST_F(FaultInjectionTest, DroppedCacheInsertDegradesGracefully) {
  std::vector<QonInstance> batch = DistinctInstances();
  BatchOptions options = BaseOptions();
  std::vector<QonBatchItem> reference = OptimizeQonBatch(batch, options);

  PlanCache cache;
  options.cache = &cache;
  // Drop the first insert *attempt* on this cache instance.
  FaultInjector::Get().Arm("plan_cache.insert", /*ordinal=*/0, /*times=*/1);
  std::vector<QonBatchItem> cold = OptimizeQonBatch(batch, options);
  FaultInjector::Get().Disarm();

  EXPECT_EQ(cache.GetStats().inserts, batch.size() - 1);
  ASSERT_EQ(cold.size(), reference.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ExpectItemBits(reference[i], cold[i], "cold item " + std::to_string(i));
  }

  // The dropped entry is simply recomputed on the next run — same bits —
  // and this time its insert goes through.
  std::vector<QonBatchItem> warm = OptimizeQonBatch(batch, options);
  for (size_t i = 0; i < warm.size(); ++i) {
    ExpectItemBits(reference[i], warm[i], "warm item " + std::to_string(i));
  }
  EXPECT_EQ(cache.GetStats().inserts, batch.size());
}

TEST_F(FaultInjectionTest, MaybeThrowThrowsOnlyAtTheArmedOrdinal) {
  FaultInjector::Get().Arm("service.item", 5, /*times=*/1);
  EXPECT_NO_THROW(FaultInjector::Get().MaybeThrow("service.item", 4));
  EXPECT_NO_THROW(FaultInjector::Get().MaybeThrow("plan_cache.insert", 5));
  EXPECT_THROW(FaultInjector::Get().MaybeThrow("service.item", 5),
               FaultInjectedError);
  // The shot is spent; the same ordinal passes now.
  EXPECT_NO_THROW(FaultInjector::Get().MaybeThrow("service.item", 5));
  EXPECT_TRUE(FaultInjector::Get().armed());
  FaultInjector::Get().Disarm();
  EXPECT_FALSE(FaultInjector::Get().armed());
}

}  // namespace
}  // namespace aqo
