// Differential bit-identity tests for the zero-allocation incremental cost
// evaluators (qo/cost_eval.h) against the naive reference implementations
// QonSequenceCost / OptimalDecomposition. "Bit-identical" is meant
// literally: every comparison below is on the raw bit pattern of the
// LogDouble exponent, never an epsilon. Also holds the regression line for
// the degenerate-size fixes (empty/singleton sequences in the QO_N and
// QO_H cost paths).

#include "qo/cost_eval.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/sparse.h"
#include "util/random.h"

namespace aqo {
namespace {

uint64_t Bits(LogDouble x) { return std::bit_cast<uint64_t>(x.Log2()); }

QonInstance RandomInstance(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLinear(static_cast<double>(rng->UniformInt(2, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.001, 1.0)));
  }
  return inst;
}

// --- QO_N: full + swap/insert/prefix-change neighborhoods ---------------

TEST(QonCostEvaluator, BitIdenticalToNaiveAcrossNeighborhoods) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(1000 + seed);
    int n = 2 + static_cast<int>(seed % 11);  // n in [2, 12]
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.2, 1.0), &rng);
    QonCostEvaluator eval(inst);

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)))
        << "full evaluation, seed=" << seed;

    // Swap neighborhood: swapped in place, as ii and sa do, against a
    // from-scratch naive cost.
    for (int move = 0; move < 4; ++move) {
      int i = static_cast<int>(rng.UniformInt(0, n - 1));
      int j = static_cast<int>(rng.UniformInt(0, n - 1));
      std::swap(seq[static_cast<size_t>(i)], seq[static_cast<size_t>(j)]);
      ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)))
          << "swap (" << i << "," << j << "), seed=" << seed;
    }

    // Insert neighborhood: remove one position, insert elsewhere; the diff
    // scan inside Cost() finds the first changed position itself.
    for (int move = 0; move < 4; ++move) {
      size_t from = static_cast<size_t>(rng.UniformInt(0, n - 1));
      size_t to = static_cast<size_t>(rng.UniformInt(0, n - 1));
      int v = seq[from];
      seq.erase(seq.begin() + static_cast<ptrdiff_t>(from));
      seq.insert(seq.begin() + static_cast<ptrdiff_t>(to), v);
      ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)))
          << "insert " << from << "->" << to << ", seed=" << seed;
    }

    // Prefix-change neighborhood: reshuffle the suffix from position k on.
    for (int move = 0; move < 4; ++move) {
      int k = static_cast<int>(rng.UniformInt(0, n - 1));
      JoinSequence next = seq;
      for (size_t i = seq.size() - 1; i > static_cast<size_t>(k); --i) {
        size_t j = static_cast<size_t>(
            rng.UniformInt(k, static_cast<int64_t>(i)));
        std::swap(next[i], next[j]);
      }
      ASSERT_EQ(Bits(eval.Cost(next)), Bits(QonSequenceCost(inst, next)))
          << "prefix-change at " << k << ", seed=" << seed;
      seq = next;
    }
  }
}

TEST(QonCostEvaluator, DensePrimitivesBitIdenticalToNaiveFolds) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(7000 + seed);
    int n = 2 + static_cast<int>(seed % 11);
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.2, 1.0), &rng);
    QonCostEvaluator eval(inst);

    JoinSequence perm = IdentitySequence(n);
    rng.Shuffle(&perm);
    size_t len = static_cast<size_t>(rng.UniformInt(1, n - 1));
    std::vector<int> prefix(perm.begin(),
                            perm.begin() + static_cast<ptrdiff_t>(len));
    int target = perm[len];

    // min access cost: left-to-right MinOf fold over the prefix.
    LogDouble naive_min = inst.AccessCost(prefix[0], target);
    for (size_t j = 1; j < prefix.size(); ++j) {
      naive_min = MinOf(naive_min, inst.AccessCost(prefix[j], target));
    }
    ASSERT_EQ(Bits(eval.MinAccess(prefix, target)), Bits(naive_min));

    LogDouble seeded_init = inst.size(target);
    LogDouble naive_seeded = seeded_init;
    for (int k : prefix) {
      naive_seeded = MinOf(naive_seeded, inst.AccessCost(k, target));
    }
    ASSERT_EQ(Bits(eval.MinAccessSeeded(seeded_init, prefix, target)),
              Bits(naive_seeded));

    // One constructive extension of the running intermediate size: the
    // instance's own fold, against the naive loop over the accessors.
    LogDouble intermediate = LogDouble::FromLinear(rng.UniformReal(1.0, 1e6));
    LogDouble naive_ext = intermediate * inst.size(target);
    for (int k : prefix) {
      if (inst.graph().HasEdge(k, target)) {
        naive_ext *= inst.selectivity(k, target);
      }
    }
    ASSERT_EQ(Bits(inst.ExtendSize(intermediate, prefix, target)),
              Bits(naive_ext));

    bool naive_connects = false;
    for (int k : prefix) naive_connects |= inst.graph().HasEdge(k, target);
    ASSERT_EQ(eval.ConnectsTo(prefix, target), naive_connects);
  }
}

TEST(QonCostEvaluator, NaiveToggleInvalidatesAndResumesCorrectly) {
  Rng rng(42);
  QonInstance inst = RandomInstance(8, 0.6, &rng);
  QonCostEvaluator eval(inst);
  JoinSequence seq = IdentitySequence(8);
  rng.Shuffle(&seq);
  ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)));
  {
    ScopedNaiveCostEvaluation naive;
    std::swap(seq[1], seq[5]);
    ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)));
  }
  // Back on the fast path: the cached state was invalidated inside the
  // scope, so this must rebuild from scratch and still agree.
  std::swap(seq[0], seq[7]);
  ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)));
}

// --- QO_H: decomposition DP, counters, and swap neighborhood ------------

TEST(QohCostEvaluator, BitIdenticalToOptimalDecomposition) {
  auto expect_same_plan = [](const QohPlan& got, const QohPlan& want,
                             uint64_t seed, const char* what) {
    ASSERT_EQ(got.feasible, want.feasible) << what << ", seed=" << seed;
    if (want.feasible) {
      ASSERT_EQ(Bits(got.cost), Bits(want.cost)) << what << ", seed=" << seed;
      ASSERT_EQ(got.decomposition.starts, want.decomposition.starts)
          << what << ", seed=" << seed;
    }
  };
  for (uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(3000 + seed);
    int n = 2 + static_cast<int>(seed % 9);  // n in [2, 10]
    // Sweep the memory budget from starved to comfortable so infeasible
    // sequences (and partially reachable DPs) are exercised too.
    double memory_fraction = rng.UniformReal(0.05, 1.2);
    QohInstance inst = RandomQohWorkload(n, &rng, memory_fraction);
    QohCostEvaluator eval(inst);

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    expect_same_plan(eval.Evaluate(seq), OptimalDecomposition(inst, seq),
                     seed, "full");

    for (int move = 0; move < 5; ++move) {
      size_t a = static_cast<size_t>(rng.UniformInt(0, n - 1));
      size_t b = static_cast<size_t>(rng.UniformInt(0, n - 1));
      std::swap(seq[a], seq[b]);
      expect_same_plan(eval.Evaluate(seq), OptimalDecomposition(inst, seq),
                       seed, "swap");
    }
  }
}

// The counter increments `fn` makes on the calling thread.
template <typename Fn>
obs::CounterSnapshot CountersOf(Fn&& fn) {
  obs::ThreadCounterTally tally;
  fn();
  return tally.Snapshot();
}

TEST(QohCostEvaluator, ReplaysDecompCountersExactly) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(5000 + seed);
    int n = 3 + static_cast<int>(seed % 7);
    QohInstance inst = RandomQohWorkload(n, &rng, rng.UniformReal(0.1, 1.0));
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);

    QohPlan naive;
    obs::CounterSnapshot naive_counters =
        CountersOf([&] { naive = OptimalDecomposition(inst, seq); });
    ASSERT_FALSE(naive_counters.empty()) << "seed=" << seed;

    QohCostEvaluator eval(inst);
    const QohPlan* fast = nullptr;
    obs::CounterSnapshot fast_counters =
        CountersOf([&] { fast = &eval.Evaluate(seq); });
    ASSERT_EQ(naive_counters, fast_counters)
        << "qoh.decomp.* counter deltas diverged, seed=" << seed;
    ASSERT_EQ(fast->feasible, naive.feasible);

    // A cache-hit on the identical sequence must replay the same logical
    // counter amounts again (the naive path would have recounted them).
    ASSERT_EQ(naive_counters, CountersOf([&] { eval.Evaluate(seq); }))
        << "cache-hit replay diverged, seed=" << seed;
  }
}

TEST(QohInstance, ExtendSizeMatchesNaiveFold) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    int n = 3 + trial % 6;
    QohInstance inst = RandomQohWorkload(n, &rng, 0.5);
    JoinSequence perm = IdentitySequence(n);
    rng.Shuffle(&perm);
    size_t len = static_cast<size_t>(rng.UniformInt(1, n - 1));
    std::vector<int> prefix(perm.begin(),
                            perm.begin() + static_cast<ptrdiff_t>(len));
    int target = perm[len];
    LogDouble intermediate = LogDouble::FromLinear(rng.UniformReal(1.0, 1e6));
    LogDouble naive_ext = intermediate * inst.size(target);
    for (int k : prefix) {
      if (inst.graph().HasEdge(k, target)) {
        naive_ext *= inst.selectivity(k, target);
      }
    }
    ASSERT_EQ(Bits(inst.ExtendSize(intermediate, prefix, target)),
              Bits(naive_ext));
  }
}

// --- QO_H: the gap-table shapes -----------------------------------------
//
// RandomQohWorkload builds at most 10 relations, none past 2^52 pages.
// The gap constructions have a sentinel R_0 far past 2^52 pages, and
// f_{H,e} has 81 or 144 relations, so the evaluator's adjacency rows span
// several words. E6 (bench/sparse_qoh) prices its plans on these
// instances through the evaluator, so one evaluator per instance walks
// the plans E6 prices and every result is checked against
// OptimalDecomposition.

// Evaluates `plans` in order on one evaluator. Each plan's feasibility,
// cost bits, fragment starts and counter deltas must equal the naive DP's;
// returns the feasibility of each plan.
std::vector<bool> ExpectNaiveAlongPlans(const QohInstance& inst,
                                        const std::vector<JoinSequence>& plans) {
  QohCostEvaluator eval(inst);
  std::vector<bool> feasible;
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    QohPlan naive;
    obs::CounterSnapshot naive_counters =
        CountersOf([&] { naive = OptimalDecomposition(inst, plans[i]); });
    const QohPlan* fast_plan = nullptr;
    EXPECT_EQ(naive_counters,
              CountersOf([&] { fast_plan = &eval.Evaluate(plans[i]); }));
    const QohPlan& fast = *fast_plan;
    EXPECT_EQ(fast.feasible, naive.feasible);
    if (fast.feasible && naive.feasible) {
      EXPECT_EQ(Bits(fast.cost), Bits(naive.cost));
      EXPECT_EQ(fast.decomposition.starts, naive.decomposition.starts);
    }
    feasible.push_back(naive.feasible);
  }
  return feasible;
}

// E6's plans: the YES witness order, E6's sentinel check (R_0 swapped out
// of the front), then `shuffles` sentinel-first shuffles as E6 samples
// them; the last shuffle is followed by a copy with its second half
// reshuffled, so the evaluator also resumes from mid-sequence.
std::vector<JoinSequence> TablePlans(const JoinSequence& witness,
                                     int shuffles, Rng* rng) {
  std::vector<JoinSequence> plans = {witness, witness};
  std::swap(plans[1][0], plans[1][3]);
  JoinSequence seq = IdentitySequence(static_cast<int>(witness.size()));
  for (int s = 0; s < shuffles; ++s) {
    rng->Shuffle(&seq);
    std::swap(*std::find(seq.begin(), seq.end(), 0), seq[0]);
    plans.push_back(seq);
  }
  JoinSequence tail(seq.begin() + static_cast<ptrdiff_t>(seq.size() / 2),
                    seq.end());
  rng->Shuffle(&tail);
  std::copy(tail.begin(), tail.end(),
            seq.begin() + static_cast<ptrdiff_t>(seq.size() / 2));
  plans.push_back(seq);
  return plans;
}

// YES: the witness is feasible and the sentinel check kills feasibility.
// NO: the witness order is not a witness there; every sentinel-first
// shuffle is feasible, as E6's sampled-G column needs.
void ExpectTableShape(const std::vector<bool>& yes,
                      const std::vector<bool>& no) {
  ASSERT_GE(yes.size(), 2u);
  EXPECT_TRUE(yes[0]);
  EXPECT_FALSE(yes[1]);
  ASSERT_EQ(no.size(), yes.size());
  EXPECT_FALSE(no[1]);
  for (size_t i = 2; i < no.size(); ++i) EXPECT_TRUE(no[i]) << "plan " << i;
}

SparseQohParams E6Params(int n) {
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;
  params.edge_budget = SparseEdgeBudget(n * n, 0.9);
  return params;
}

std::vector<int> FirstTwoThirds(int n) {
  std::vector<int> clique;
  for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
  return clique;
}

void ExpectSparseTableShapes(int n, int shuffles) {
  Rng rng(6);
  Graph yes_g1 = Graph::Complete(n);
  SparseQohGapInstance yes =
      ReduceTwoThirdsCliqueToSparseQoh(yes_g1, E6Params(n), &rng);
  SparseQohGapInstance no = ReduceTwoThirdsCliqueToSparseQoh(
      CompleteMultipartite(n, 3), E6Params(n), &rng);
  JoinSequence witness =
      SparseQohWitness(yes, yes_g1, FirstTwoThirds(n)).sequence;
  std::vector<JoinSequence> plans = TablePlans(witness, shuffles, &rng);
  ExpectTableShape(ExpectNaiveAlongPlans(yes.instance, plans),
                   ExpectNaiveAlongPlans(no.instance, plans));
}

TEST(QohCostEvaluator, BitIdenticalOnSparseGapInstancesM81) {
  ExpectSparseTableShapes(9, 3);
}

TEST(QohCostEvaluator, BitIdenticalOnSparseGapInstancesM144) {
  ExpectSparseTableShapes(12, 1);
}

TEST(QohCostEvaluator, BitIdenticalOnDenseGapInstances) {
  Rng rng(3);
  QohGapInstance yes =
      ReduceTwoThirdsCliqueToQoh(Graph::Complete(9), QohGapParams{});
  QohGapInstance no = ReduceTwoThirdsCliqueToQoh(CompleteMultipartite(9, 3),
                                                 QohGapParams{});
  JoinSequence witness = QohYesWitness(yes, FirstTwoThirds(9)).sequence;
  std::vector<JoinSequence> plans = TablePlans(witness, 20, &rng);
  ExpectTableShape(ExpectNaiveAlongPlans(yes.instance, plans),
                   ExpectNaiveAlongPlans(no.instance, plans));
}

// --- Degenerate sizes (regression: size_t underflow in QonJoinCosts) ----

TEST(DegenerateSequences, QonEmptyInstanceHasZeroCost) {
  // Pre-fix, QonJoinCosts reserved seq.size() - 1 == SIZE_MAX here.
  QonInstance inst(Graph(0), {});
  EXPECT_TRUE(QonJoinCosts(inst, {}).empty());
  EXPECT_TRUE(QonSequenceCost(inst, {}).IsZero());
  EXPECT_EQ(PrefixSizes(inst, {}).size(), 1u);
}

TEST(DegenerateSequences, QonSingletonHasZeroCost) {
  QonInstance inst(Graph(1), {LogDouble::FromLinear(42.0)});
  JoinSequence seq = {0};
  EXPECT_TRUE(QonJoinCosts(inst, seq).empty());
  EXPECT_TRUE(QonSequenceCost(inst, seq).IsZero());
  std::vector<LogDouble> prefix = PrefixSizes(inst, seq);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(Bits(prefix[1]), Bits(LogDouble::FromLinear(42.0)));
}

TEST(DegenerateSequences, PrefixSizesOfQohEmptyAndSingleton) {
  QohInstance empty(Graph(0), {}, /*memory=*/64.0, /*eta=*/0.5);
  EXPECT_EQ(PrefixSizes(empty, {}).size(), 1u);

  QohInstance single(Graph(1), {LogDouble::FromLinear(8.0)}, 64.0, 0.5);
  std::vector<LogDouble> prefix = PrefixSizes(single, {0});
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(Bits(prefix[0]), Bits(LogDouble::One()));
  EXPECT_EQ(Bits(prefix[1]), Bits(LogDouble::FromLinear(8.0)));
}

}  // namespace
}  // namespace aqo
