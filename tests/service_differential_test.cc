// The batch service's determinism contract (qo/service.h), end to end:
// for EVERY optimizer in the registry, a batch of relabeled-duplicate-heavy
// instances optimizes to bit-identical results (costs, sequences,
// evaluation counts) whether the cache is off, cold, warm, or shared —
// and a warm cache serves every instance.

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qo/fingerprint.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr uint64_t kSeed = 5;

std::vector<int> RandomPermutation(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

// Three bases (one a tree, so kbz has a feasible path), each followed by
// two relabeled duplicates: 9 instances, 2/3 of them duplicate work.
std::vector<QonInstance> QonBatchInstances() {
  Rng rng(41);
  std::vector<QonInstance> bases;
  bases.push_back(RandomQonWorkload(7, &rng));
  WorkloadOptions tree;
  tree.shape = WorkloadShape::kTree;
  bases.push_back(RandomQonWorkload(7, &rng, tree));
  bases.push_back(RandomQonWorkload(6, &rng));
  std::vector<QonInstance> batch;
  for (const QonInstance& base : bases) {
    batch.push_back(base);
    for (int d = 0; d < 2; ++d) {
      batch.push_back(PermuteQonInstance(
          base, RandomPermutation(base.NumRelations(), &rng)));
    }
  }
  return batch;
}

std::vector<QohInstance> QohBatchInstances() {
  Rng rng(42);
  std::vector<QohInstance> bases;
  bases.push_back(RandomQohWorkload(6, &rng, 0.5));
  bases.push_back(RandomQohWorkload(5, &rng, 0.8));
  bases.push_back(RandomQohWorkload(6, &rng, 0.3));
  std::vector<QohInstance> batch;
  for (const QohInstance& base : bases) {
    batch.push_back(base);
    for (int d = 0; d < 2; ++d) {
      batch.push_back(PermuteQohInstance(
          base, RandomPermutation(base.NumRelations(), &rng)));
    }
  }
  return batch;
}

OptimizerOptions FastQonKnobs() {
  OptimizerOptions o;
  o.samples = 80;
  o.restarts = 2;
  o.sa.iterations = 300;
  o.sa.restarts = 1;
  o.ga.population = 16;
  o.ga.generations = 8;
  return o;
}

QohOptimizerOptions FastQohKnobs() {
  QohOptimizerOptions o;
  o.samples = 50;
  o.restarts = 2;
  o.sa.iterations = 200;
  o.sa.restarts = 1;
  return o;
}

template <typename Item>
void ExpectSameItems(const std::string& label, const std::vector<Item>& a,
                     const std::vector<Item>& b) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << label << " item " << i;
    EXPECT_EQ(a[i].result.feasible, b[i].result.feasible)
        << label << " item " << i;
    if (!a[i].result.feasible) continue;
    EXPECT_EQ(a[i].result.cost.Log2(), b[i].result.cost.Log2())
        << label << " item " << i;
    EXPECT_EQ(a[i].result.sequence, b[i].result.sequence)
        << label << " item " << i;
    EXPECT_EQ(a[i].result.evaluations, b[i].result.evaluations)
        << label << " item " << i;
  }
}

TEST(ServiceDifferential, QonCacheNeverChangesAnyBit) {
  std::vector<QonInstance> batch = QonBatchInstances();
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    BatchOptions options;
    options.optimizer = name;
    options.qon = FastQonKnobs();
    options.seed = kSeed;

    // Reference: cache off.
    std::vector<QonBatchItem> reference = OptimizeQonBatch(batch, options);
    ExpectSameItems(name + " nocache", reference,
                    OptimizeQonBatch(batch, options));

    PlanCache cold_cache;
    options.cache = &cold_cache;
    std::vector<QonBatchItem> cold = OptimizeQonBatch(batch, options);
    ExpectSameItems(name + " cold", reference, cold);

    std::vector<QonBatchItem> warm = OptimizeQonBatch(batch, options);
    ExpectSameItems(name + " warm", reference, warm);
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_TRUE(warm[i].from_cache) << name << " warm item " << i;
    }
    EXPECT_GT(cold_cache.GetStats().hits, 0u) << name;

    // A cache shared by successive batches must agree too.
    PlanCache shared_cache;
    options.cache = &shared_cache;
    for (int round = 0; round < 2; ++round) {
      ExpectSameItems(name + " shared", reference,
                      OptimizeQonBatch(batch, options));
    }
  }
}

TEST(ServiceDifferential, QohCacheNeverChangesAnyBit) {
  std::vector<QohInstance> batch = QohBatchInstances();
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    BatchOptions options;
    options.optimizer = name;
    options.qoh = FastQohKnobs();
    options.seed = kSeed;

    std::vector<QohBatchItem> reference = OptimizeQohBatch(batch, options);
    std::vector<QohBatchItem> again = OptimizeQohBatch(batch, options);
    ExpectSameItems(name + " nocache", reference, again);
    for (size_t i = 0; i < again.size(); ++i) {
      if (!reference[i].result.feasible) continue;
      EXPECT_EQ(reference[i].result.decomposition.starts,
                again[i].result.decomposition.starts)
          << name << " item " << i;
    }

    PlanCache cold_cache;
    options.cache = &cold_cache;
    std::vector<QohBatchItem> cold = OptimizeQohBatch(batch, options);
    ExpectSameItems(name + " cold", reference, cold);

    std::vector<QohBatchItem> warm = OptimizeQohBatch(batch, options);
    ExpectSameItems(name + " warm", reference, warm);
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_TRUE(warm[i].from_cache) << name << " warm item " << i;
      if (!reference[i].result.feasible) continue;
      EXPECT_EQ(reference[i].result.decomposition.starts,
                warm[i].result.decomposition.starts)
          << name << " item " << i;
    }
    EXPECT_GT(cold_cache.GetStats().hits, 0u) << name;

    PlanCache shared_cache;
    options.cache = &shared_cache;
    for (int round = 0; round < 2; ++round) {
      ExpectSameItems(name + " shared", reference,
                      OptimizeQohBatch(batch, options));
    }
  }
}

// The sentinel_first knob is caller-label-relative; the service must
// remap it per instance, so pinning relation 0 in the base and relation
// perm[0]... in a duplicate are different cache keys — but each item's
// result still matches its own serial cold run bit for bit.
TEST(ServiceDifferential, QohSentinelFirstRemapsPerInstance) {
  Rng rng(43);
  QohInstance base = RandomQohWorkload(6, &rng, 0.5);
  std::vector<QohInstance> batch = {
      base, PermuteQohInstance(base, RandomPermutation(6, &rng))};

  BatchOptions options;
  options.optimizer = "random";
  options.qoh = FastQohKnobs();
  options.qoh.sentinel_first = 0;
  options.seed = kSeed;

  std::vector<QohBatchItem> serial = OptimizeQohBatch(batch, options);
  PlanCache cache;
  options.cache = &cache;
  std::vector<QohBatchItem> cached = OptimizeQohBatch(batch, options);
  ExpectSameItems("sentinel", serial, cached);
  for (const QohBatchItem& item : cached) {
    if (!item.result.feasible) continue;
    ASSERT_FALSE(item.result.sequence.empty());
    EXPECT_EQ(item.result.sequence.front(), 0);  // pinned in caller labels
  }
}

}  // namespace
}  // namespace aqo
