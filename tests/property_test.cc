// Parameterized property sweeps (TEST_P) over the invariants the paper's
// lemmas rely on: the hash-join cost axioms for every eta, homogeneity of
// the QO_N cost model, gap soundness across (alpha, d) parameterizations,
// and seed sweeps of the reduction chains.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "graph/clique.h"
#include "graph/generators.h"
#include "obs/runlog.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/plan_cache.h"
#include "qo/qoh.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "reductions/sat_to_clique.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

// --- QO_H cost axioms (paper Section 2.2, properties 1-4 of g) ---

class QohAxiomSweep : public ::testing::TestWithParam<double> {};

TEST_P(QohAxiomSweep, HashJoinCostSatisfiesTheFourAxioms) {
  double eta = GetParam();
  Graph g = Chain(2);
  double inner = 4096.0;
  std::vector<LogDouble> sizes = {LogDouble::FromLinear(512.0),
                                  LogDouble::FromLinear(inner)};
  double hjmin = std::ceil(std::pow(inner, eta));

  auto cost_at_memory = [&](double memory) {
    QohInstance inst(g, sizes, memory, eta);
    inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
    PipelineCostResult r = OptimalPipelineCost(inst, {0, 1}, 1, 1);
    EXPECT_TRUE(r.feasible);
    return r.cost.ToLinear();
  };

  // Axiom 1: linear decreasing on [hjmin, b]. Check monotone decreasing
  // and exact midpoint linearity.
  double lo = cost_at_memory(hjmin);
  double mid = cost_at_memory((hjmin + inner) / 2.0);
  double hi = cost_at_memory(inner);
  EXPECT_GT(lo, mid);
  EXPECT_GT(mid, hi);
  EXPECT_NEAR(mid, (lo + hi) / 2.0, 1e-6 * lo);

  // Axiom 2: g = 0 for m >= b: cost flat beyond the inner size.
  EXPECT_NEAR(cost_at_memory(inner * 4.0), hi, 1e-9);

  // Axiom 4: h(hjmin) = Theta(b_R + b_S): full probe re-read plus build
  // plus materialization bookkeeping.
  double n_out = 512.0 * inner * 0.5;
  EXPECT_NEAR(lo, 512.0 + (512.0 + inner) * 1.0 + inner + n_out, 1e-6 * lo);

  // Feasibility boundary: below hjmin the join cannot run.
  QohInstance starved(g, sizes, hjmin - 1.0, eta);
  starved.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  EXPECT_FALSE(OptimalPipelineCost(starved, {0, 1}, 1, 1).feasible);
}

INSTANTIATE_TEST_SUITE_P(EtaSweep, QohAxiomSweep,
                         ::testing::Values(0.25, 0.4, 0.5, 0.6, 0.75));

// --- QO_N cost model homogeneity ---

class QonHomogeneitySweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(QonHomogeneitySweep, ScalingAllSizesScalesPrefixes) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  QonInstance inst = RandomQonWorkload(n, &rng);
  LogDouble factor = LogDouble::FromLinear(7.0);

  QonInstance scaled(inst.graph(), [&] {
    std::vector<LogDouble> s;
    for (int i = 0; i < n; ++i) s.push_back(inst.size(i) * factor);
    return s;
  }());
  for (const auto& [u, v] : inst.graph().Edges()) {
    scaled.SetSelectivity(u, v, inst.selectivity(u, v));
  }

  JoinSequence seq = IdentitySequence(n);
  rng.Shuffle(&seq);
  std::vector<LogDouble> base = PrefixSizes(inst, seq);
  std::vector<LogDouble> big = PrefixSizes(scaled, seq);
  for (size_t k = 0; k < base.size(); ++k) {
    // N scales by factor^k (one factor per member relation).
    EXPECT_TRUE((base[k] * factor.Pow(static_cast<double>(k)))
                    .ApproxEquals(big[k], 1e-9))
        << "prefix length " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, QonHomogeneitySweep,
    ::testing::Combine(::testing::Values(4, 7, 10),
                       ::testing::Values(uint64_t{1}, uint64_t{99},
                                         uint64_t{2024})));

// --- certified swap pricing: error bound (qo/fast_eval.h) ---

// The evaluator's contract is an interval argument over the fold length;
// this sweep is the empirical side: across 1000 seeded instances, every
// adjacent-swap price lands within EpsLog2() of the exact evaluator.
// tests/fast_eval_test.cc checks every swap pair at the sizes where `ii`
// ranks.
TEST(FastEvalCertifiedBound, QonThousandSeedSweep) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    int n = 2 + static_cast<int>(rng.UniformInt(0, 28));
    QonInstance inst = RandomQonWorkload(n, &rng);
    QonCostEvaluator exact(inst);
    QonNeighborhoodEvaluator fast(inst);
    double eps = fast.EpsLog2();

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    fast.Load(seq);
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      std::swap(seq[i], seq[i + 1]);
      LogDouble probe = exact.Cost(seq);
      std::swap(seq[i], seq[i + 1]);
      ASSERT_NEAR(fast.PriceSwap(i, i + 1), probe.Log2(), eps)
          << "seed=" << seed << " n=" << n << " i=" << i;
    }
  }
}

// The ranking contract: price every swap pair with PriceSwap (each within
// the bound), exactly re-price only those within 2*eps of the fast
// minimum, and the resulting argmin (first pair in scan order on exact
// ties) is the argmin a fully exact pass would pick. Any candidate outside
// the 2*eps band is certified non-minimal, so skipping its exact
// evaluation is lossless — even on instances where every swap is exactly
// cost-neutral.
TEST(FastEvalCertifiedBound, RepricedArgminMatchesExactArgmin) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    int n = 4 + static_cast<int>(rng.UniformInt(0, 12));
    QonInstance inst = RandomQonWorkload(n, &rng);
    QonCostEvaluator exact(inst);
    QonNeighborhoodEvaluator fast(inst);
    double eps = fast.EpsLog2();

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    fast.Load(seq);
    std::vector<std::pair<int, int>> pairs;
    std::vector<double> prices;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        pairs.emplace_back(i, j);
        prices.push_back(fast.PriceSwap(i, j));
      }
    }
    double fast_min = *std::min_element(prices.begin(), prices.end());

    auto exact_price = [&](size_t k) {
      size_t i = static_cast<size_t>(pairs[k].first);
      size_t j = static_cast<size_t>(pairs[k].second);
      std::swap(seq[i], seq[j]);
      LogDouble cost = exact.Cost(seq);
      std::swap(seq[i], seq[j]);
      return cost;
    };
    size_t repriced_argmin = pairs.size();
    LogDouble repriced_best;
    for (size_t k = 0; k < pairs.size(); ++k) {
      if (prices[k] > fast_min + 2.0 * eps) continue;  // certified non-min
      LogDouble cost = exact_price(k);
      if (repriced_argmin == pairs.size() || cost < repriced_best) {
        repriced_best = cost;
        repriced_argmin = k;
      }
    }

    size_t exact_argmin = pairs.size();
    LogDouble exact_best;
    for (size_t k = 0; k < pairs.size(); ++k) {
      LogDouble cost = exact_price(k);
      ASSERT_NEAR(prices[k], cost.Log2(), eps) << "seed=" << seed;
      if (exact_argmin == pairs.size() || cost < exact_best) {
        exact_best = cost;
        exact_argmin = k;
      }
    }
    ASSERT_EQ(repriced_argmin, exact_argmin) << "seed=" << seed << " n=" << n;
    ASSERT_EQ(repriced_best.Log2(), exact_best.Log2()) << "seed=" << seed;
  }
}

// --- f_N gap soundness across parameterizations ---

class GapSoundnessSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GapSoundnessSweep, CertifiedFloorNeverExceedsTrueOptimum) {
  auto [log2_alpha, d] = GetParam();
  Rng rng(static_cast<uint64_t>(log2_alpha * 100 + d * 10));
  for (int trial = 0; trial < 8; ++trial) {
    int n = static_cast<int>(rng.UniformInt(6, 11));
    Graph g = Gnp(n, rng.UniformReal(0.3, 0.9), &rng);
    QonGapParams params{.c = 0.8, .d = d, .log2_alpha = log2_alpha};
    QonGapInstance gap = ReduceCliqueToQon(g, params);
    int omega = static_cast<int>(MaxClique(g).clique.size());
    OptimizerResult opt = DpQonOptimizer(gap.instance);
    ASSERT_TRUE(opt.feasible);
    EXPECT_GE(opt.cost.Log2() + 1e-6,
              gap.CertifiedLowerBound(omega).Log2())
        << "alpha=2^" << log2_alpha << " d=" << d << " n=" << n;
  }
}

TEST_P(GapSoundnessSweep, WitnessRespectsKOnDenseYesInstances) {
  auto [log2_alpha, d] = GetParam();
  Rng rng(static_cast<uint64_t>(log2_alpha * 7 + d * 31));
  int n = 90;
  int clique = 2 * n / 3;
  std::vector<int> planted;
  Graph g = CliqueClassGraph(n, 13, 1.0, clique, &rng, &planted);
  QonGapParams params{.c = 2.0 / 3.0, .d = d, .log2_alpha = log2_alpha};
  QonGapInstance gap = ReduceCliqueToQon(g, params);
  JoinSequence witness = CliqueFirstWitness(g, planted);
  // Lemma 6 regime requires n >= 30/d; these parameters satisfy it.
  ASSERT_GE(n, static_cast<int>(30.0 / d));
  EXPECT_LE(QonSequenceCost(gap.instance, witness).Log2(),
            gap.KBound().Log2() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaDSweep, GapSoundnessSweep,
    ::testing::Combine(::testing::Values(2.0, 4.0, 12.0),
                       ::testing::Values(1.0 / 3.0, 0.4, 0.5)));

// --- Lemma 3/4 agreement across formula shapes ---

struct FormulaShape {
  int vars;
  int clauses;
};

class CliqueReductionSweep : public ::testing::TestWithParam<FormulaShape> {};

TEST_P(CliqueReductionSweep, OmegaTracksMinUnsat) {
  FormulaShape shape = GetParam();
  Rng rng(static_cast<uint64_t>(shape.vars * 100 + shape.clauses));
  for (int trial = 0; trial < 5; ++trial) {
    CnfFormula f = RandomThreeSat(shape.vars, shape.clauses, &rng);
    int u_star = f.NumClauses() - MaxSatisfiableClauses(f);
    SatToCliqueResult r = ReduceSatToClique(f);
    EXPECT_EQ(static_cast<int>(MaxClique(r.graph).clique.size()),
              r.CliqueSizeForUnsat(u_star));
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, CliqueReductionSweep,
                         ::testing::Values(FormulaShape{3, 2},
                                           FormulaShape{3, 5},
                                           FormulaShape{4, 4},
                                           FormulaShape{5, 3}),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param.vars) + "m" +
                                  std::to_string(info.param.clauses);
                         });

// --- Metamorphic invariants of the optimizers and the parallel sweep ---

// Relabels relation i as perm[i]. The optimal cost is invariant: the cost
// model only consults sizes, selectivities and access paths through the
// relation's identity, never its numeric id.
QonInstance PermuteQon(const QonInstance& inst, const std::vector<int>& perm) {
  int n = inst.NumRelations();
  Graph g(n);
  for (const auto& [u, v] : inst.graph().Edges()) {
    g.AddEdge(perm[static_cast<size_t>(u)], perm[static_cast<size_t>(v)]);
  }
  std::vector<LogDouble> sizes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sizes[static_cast<size_t>(perm[static_cast<size_t>(i)])] = inst.size(i);
  }
  QonInstance out(g, std::move(sizes));
  for (const auto& [u, v] : inst.graph().Edges()) {
    out.SetSelectivity(perm[static_cast<size_t>(u)],
                       perm[static_cast<size_t>(v)], inst.selectivity(u, v));
  }
  return out;
}

QonInstance RandomQonInstance(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(LogDouble::FromLinear(
        static_cast<double>(rng->UniformInt(10, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.001, 0.8)));
  }
  return inst;
}

TEST(RelabelingInvariance, QonOptimalCostSurvivesRelationPermutation) {
  Rng rng(424242);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 9));
    QonInstance inst = RandomQonInstance(n, rng.UniformReal(0.3, 0.9), &rng);
    std::vector<int> perm = IdentitySequence(n);
    rng.Shuffle(&perm);
    QonInstance relabeled = PermuteQon(inst, perm);

    OptimizerResult base = DpQonOptimizer(inst);
    OptimizerResult mapped = DpQonOptimizer(relabeled);
    ASSERT_TRUE(base.feasible);
    ASSERT_TRUE(mapped.feasible);
    EXPECT_TRUE(mapped.cost.ApproxEquals(base.cost, 1e-9))
        << "n=" << n << " trial=" << trial;

    // The relabeled image of the original optimal sequence costs the
    // optimum in the relabeled instance.
    JoinSequence image;
    for (int v : base.sequence) image.push_back(perm[static_cast<size_t>(v)]);
    EXPECT_TRUE(
        QonSequenceCost(relabeled, image).ApproxEquals(mapped.cost, 1e-9));
  }
}

TEST(RelabelingInvariance, QohOptimalCostSurvivesRelationPermutation) {
  Rng rng(535353);
  int n = 5;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = ConnectedWithEdgeBudget(
        n, static_cast<int>(rng.UniformInt(n - 1, n * (n - 1) / 2)), &rng);
    std::vector<LogDouble> sizes;
    for (int i = 0; i < n; ++i) {
      sizes.push_back(LogDouble::FromLinear(
          static_cast<double>(rng.UniformInt(16, 4096))));
    }
    QohInstance inst(g, sizes, /*memory=*/512.0, /*eta=*/0.5);
    for (const auto& [u, v] : g.Edges()) {
      inst.SetSelectivity(u, v,
                          LogDouble::FromLinear(rng.UniformReal(0.01, 0.9)));
    }
    std::vector<int> perm = IdentitySequence(n);
    rng.Shuffle(&perm);
    Graph pg(n);
    for (const auto& [u, v] : g.Edges()) {
      pg.AddEdge(perm[static_cast<size_t>(u)], perm[static_cast<size_t>(v)]);
    }
    std::vector<LogDouble> psizes(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      psizes[static_cast<size_t>(perm[static_cast<size_t>(i)])] = sizes[
          static_cast<size_t>(i)];
    }
    QohInstance relabeled(pg, psizes, inst.memory(), inst.eta());
    for (const auto& [u, v] : g.Edges()) {
      relabeled.SetSelectivity(perm[static_cast<size_t>(u)],
                               perm[static_cast<size_t>(v)],
                               inst.selectivity(u, v));
    }

    // Brute-force QO_H optimum: best decomposition over all n! sequences.
    auto optimum = [n](const QohInstance& in) {
      JoinSequence seq = IdentitySequence(n);
      bool found = false;
      LogDouble best;
      do {
        QohPlan plan = OptimalDecomposition(in, seq);
        if (plan.feasible && (!found || plan.cost < best)) {
          found = true;
          best = plan.cost;
        }
      } while (std::next_permutation(seq.begin(), seq.end()));
      EXPECT_TRUE(found);
      return best;
    };
    EXPECT_TRUE(optimum(relabeled).ApproxEquals(optimum(inst), 1e-9))
        << "trial=" << trial;
  }
}

// A sweep's results — and the order and content of its run-log records —
// are identical for every thread count. This is the SweepRunner contract
// that lets every bench default --threads to the hardware width.
TEST(ThreadsInvariance, SweepResultsAndRunLogIdenticalAcrossThreadCounts) {
  constexpr size_t kCells = 24;
  auto sweep_once = [&](int threads, std::string* log_text) {
    std::ostringstream log;
    obs::RunLog::AttachGlobal(&log);
    ThreadPool pool(threads);
    bench::SweepRunner sweep(&pool, /*base_seed=*/777);
    std::vector<double> costs = sweep.Map<double>(
        kCells, [](size_t index, Rng* rng) {
          int n = 5 + static_cast<int>(index % 4);
          QonInstance inst = RandomQonInstance(n, 0.7, rng);
          obs::InstanceShape shape{.family = "qon",
                                   .kind = "threads_invariance",
                                   .side = "",
                                   .source = "",
                                   .n = n,
                                   .edges = inst.graph().NumEdges()};
          OptimizerResult greedy = obs::InstrumentedRun(
              "qon.greedy", shape, [&] { return GreedyQonOptimizer(inst); });
          OptimizerResult dp = obs::InstrumentedRun(
              "qon.dp", shape, [&] { return DpQonOptimizer(inst); });
          return greedy.cost.Log2() - dp.cost.Log2();
        });
    obs::RunLog::CloseGlobal();
    // Timings are the one legitimately varying field; blank them before
    // comparing record streams.
    *log_text = std::regex_replace(log.str(),
                                   std::regex("\"wall_seconds\":[0-9.eE+-]+"),
                                   "\"wall_seconds\":0");
    return costs;
  };

  std::string log1;
  std::vector<double> costs1 = sweep_once(1, &log1);
  ASSERT_EQ(costs1.size(), kCells);
  EXPECT_FALSE(log1.empty());
  for (int threads : {2, 8}) {
    std::string log_n;
    std::vector<double> costs_n = sweep_once(threads, &log_n);
    EXPECT_EQ(costs1, costs_n) << "threads=" << threads;  // exact doubles
    EXPECT_EQ(log1, log_n) << "threads=" << threads;
  }
}

// --- Plan cache under relabeling (qo/service.h) ---
//
// Property: optimize an instance, then submit a relabeled duplicate
// through the same cache. The duplicate must be served from the cache,
// its mapped-back sequence must cost bitwise what the result claims on
// the *relabeled* instance, and the whole result must be bit-identical
// to a cold (cache-off) run — the cache can only memoize what
// recomputation would reproduce.
TEST(PlanCacheProperty, CacheHitUnderRelabelingMatchesColdRun) {
  Rng rng(507);
  for (int trial = 0; trial < 15; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 12));
    QonInstance base = RandomQonWorkload(n, &rng);
    std::vector<int> perm(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
    rng.Shuffle(&perm);
    QonInstance relabeled = PermuteQonInstance(base, perm);

    BatchOptions options;
    options.optimizer = (trial % 2 == 0) ? "sa" : "greedy";
    options.qon.sa.iterations = 400;
    options.qon.sa.restarts = 1;
    options.seed = static_cast<uint64_t>(trial);
    PlanCache cache;
    options.cache = &cache;

    std::vector<QonBatchItem> first = OptimizeQonBatch({base}, options);
    std::vector<QonBatchItem> second = OptimizeQonBatch({relabeled}, options);
    ASSERT_EQ(second.size(), 1u);
    ASSERT_TRUE(second[0].from_cache) << "trial " << trial;
    EXPECT_EQ(first[0].fingerprint, second[0].fingerprint);

    BatchOptions cold = options;
    cold.cache = nullptr;
    std::vector<QonBatchItem> fresh = OptimizeQonBatch({relabeled}, cold);
    ASSERT_TRUE(fresh[0].result.feasible);
    ASSERT_TRUE(second[0].result.feasible);
    EXPECT_EQ(second[0].result.cost.Log2(), fresh[0].result.cost.Log2());
    EXPECT_EQ(second[0].result.sequence, fresh[0].result.sequence);
    EXPECT_EQ(second[0].result.evaluations, fresh[0].result.evaluations);
    // The mapped-back sequence really evaluates to the claimed bits on
    // the relabeled instance.
    EXPECT_EQ(QonSequenceCost(relabeled, second[0].result.sequence).Log2(),
              second[0].result.cost.Log2());
  }
}

// --- Anytime budgets (util/cancellation.h, docs/robustness.md) ---
//
// The RunGuard never consumes RNG state, so a budget-capped run's
// trajectory is an exact prefix of the uncapped run's. Two properties
// follow, locked in here:
//
//   1. Monotonicity: for the stochastic optimizers, best-so-far cost is
//      non-increasing as budget_evals grows (same seed).
//   2. Identity at infinity: an astronomically large cap reproduces the
//      uncapped run bit for bit, status kComplete included.

TEST(AnytimeBudget, StochasticBestSoFarMonotoneInBudget) {
  Rng workload_rng(601);
  QonInstance inst = RandomQonWorkload(10, &workload_rng);
  const uint64_t budgets[] = {25, 50, 100, 200, 400, 800, 1600};
  for (const char* name : {"random", "sa", "ii", "ga"}) {
    OptimizerOptions options;
    options.samples = 500;
    options.restarts = 4;
    options.sa.iterations = 600;
    options.sa.restarts = 2;
    options.ga.population = 20;
    options.ga.generations = 30;

    auto run_with_cap = [&](uint64_t cap) {
      OptimizerOptions capped = options;
      capped.budget.max_evaluations = cap;
      Rng rng(99);  // same seed every run: trajectories share a prefix
      return OptimizerRegistry::Qon().Run(name, inst, capped, &rng);
    };

    OptimizerResult uncapped = run_with_cap(0);
    ASSERT_TRUE(uncapped.feasible) << name;
    EXPECT_EQ(uncapped.status, PlanStatus::kComplete) << name;

    double prev = std::numeric_limits<double>::infinity();
    for (uint64_t cap : budgets) {
      OptimizerResult r = run_with_cap(cap);
      ASSERT_TRUE(r.feasible) << name << " cap=" << cap;
      EXPECT_LE(r.cost.Log2(), prev) << name << " cap=" << cap;
      // Valid plan: the claimed cost is the sequence's actual cost.
      EXPECT_EQ(QonSequenceCost(inst, r.sequence).Log2(), r.cost.Log2())
          << name << " cap=" << cap;
      prev = r.cost.Log2();
    }
    // The uncapped result can never be worse than any capped one.
    EXPECT_LE(uncapped.cost.Log2(), prev) << name;
  }
}

TEST(AnytimeBudget, HugeCapReproducesUncappedBitExactly) {
  Rng workload_rng(602);
  QonInstance inst = RandomQonWorkload(8, &workload_rng);
  OptimizerOptions options;
  options.samples = 100;
  options.restarts = 2;
  options.sa.iterations = 300;
  options.sa.restarts = 1;
  options.ga.population = 16;
  options.ga.generations = 8;
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    Rng rng_uncapped(7);
    OptimizerResult uncapped =
        OptimizerRegistry::Qon().Run(name, inst, options, &rng_uncapped);

    OptimizerOptions huge = options;
    huge.budget.max_evaluations = ~0ull;  // armed but unreachable
    Rng rng_capped(7);
    OptimizerResult capped =
        OptimizerRegistry::Qon().Run(name, inst, huge, &rng_capped);

    EXPECT_EQ(capped.feasible, uncapped.feasible) << name;
    EXPECT_EQ(capped.cost.Log2(), uncapped.cost.Log2()) << name;
    EXPECT_EQ(capped.sequence, uncapped.sequence) << name;
    EXPECT_EQ(capped.evaluations, uncapped.evaluations) << name;
    EXPECT_EQ(capped.status, PlanStatus::kComplete) << name;
    EXPECT_EQ(uncapped.status, PlanStatus::kComplete) << name;
  }
}

// Acceptance sweep: a tightly capped run of EVERY registry optimizer
// returns a valid (cost-consistent) best-so-far plan with status
// budget_exhausted, deterministically across repeat runs.
TEST(AnytimeBudget, EveryQonOptimizerReturnsBestSoFarUnderTightCap) {
  Rng workload_rng(603);
  WorkloadOptions tree;
  tree.shape = WorkloadShape::kTree;  // trees: kbz is feasible too
  QonInstance inst = RandomQonWorkload(8, &workload_rng, tree);

  OptimizerOptions options;
  options.samples = 100;
  options.restarts = 3;
  options.sa.iterations = 300;
  options.sa.restarts = 2;
  options.ga.population = 16;
  options.ga.generations = 8;
  options.budget.max_evaluations = 5;

  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    Rng rng_a(11);
    OptimizerResult a = OptimizerRegistry::Qon().Run(name, inst, options, &rng_a);
    ASSERT_TRUE(a.feasible) << name;
    EXPECT_EQ(a.status, PlanStatus::kBudgetExhausted) << name;
    // Cost consistency: every entry prices its plan under QO_N.
    EXPECT_EQ(QonSequenceCost(inst, a.sequence).Log2(), a.cost.Log2())
        << name;

    // Deterministic: an identical repeat run is bit-identical.
    Rng rng_b(11);
    OptimizerResult b = OptimizerRegistry::Qon().Run(name, inst, options, &rng_b);
    EXPECT_EQ(a.cost.Log2(), b.cost.Log2()) << name;
    EXPECT_EQ(a.sequence, b.sequence) << name;
    EXPECT_EQ(a.evaluations, b.evaluations) << name;
    EXPECT_EQ(a.status, b.status) << name;
  }
}

TEST(AnytimeBudget, EveryQohOptimizerReturnsBestSoFarUnderTightCap) {
  Rng workload_rng(604);
  QohInstance inst = RandomQohWorkload(6, &workload_rng, 0.6);

  QohOptimizerOptions options;
  options.samples = 60;
  options.restarts = 3;
  options.sa.iterations = 200;
  options.sa.restarts = 2;
  options.budget.max_evaluations = 5;

  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    Rng rng_a(13);
    QohOptimizerResult a =
        QohOptimizerRegistry::Get().Run(name, inst, options, &rng_a);
    EXPECT_EQ(a.status, PlanStatus::kBudgetExhausted) << name;
    if (a.feasible) {
      // Valid plan: re-deriving the optimal decomposition of the
      // returned sequence reproduces the claimed cost bits.
      QohPlan plan = OptimalDecomposition(inst, a.sequence);
      ASSERT_TRUE(plan.feasible) << name;
      EXPECT_EQ(plan.cost.Log2(), a.cost.Log2()) << name;
    }
    Rng rng_b(13);
    QohOptimizerResult b =
        QohOptimizerRegistry::Get().Run(name, inst, options, &rng_b);
    EXPECT_EQ(a.feasible, b.feasible) << name;
    EXPECT_EQ(a.cost.Log2(), b.cost.Log2()) << name;
    EXPECT_EQ(a.sequence, b.sequence) << name;
    EXPECT_EQ(a.evaluations, b.evaluations) << name;
  }
}

// --- A served cost is the cost of the served plan ---
//
// Every registry entry of both families returns, as `cost`, the cost of
// the plan it returns, bit for bit: QonSequenceCost of the sequence, or
// DecompositionCost of the sequence and decomposition. The one exception
// is `dp`, which returns the value its subset recurrence folded; that may
// differ from the plan's left-to-right fold in the last bits, so it is
// held to 1e-9 relative. Instances cycle through n = 4..10 (within each
// entry's domain; the n! `exhaustive` entries stop at kMaxExhaustiveN to
// keep the test fast) and through random, tree, chain and star shapes,
// so kbz is feasible on some of them.
TEST(ServedCost, EveryRegistryEntryReturnsTheCostOfItsPlan) {
  constexpr int kTrials = 28;
  constexpr int kMaxExhaustiveN = 8;
  auto in_domain = [&](const std::string& name, int max_n, int n) {
    return n <= (name == "exhaustive" ? kMaxExhaustiveN : max_n);
  };
  const WorkloadShape kShapes[] = {WorkloadShape::kRandom,
                                   WorkloadShape::kTree, WorkloadShape::kChain,
                                   WorkloadShape::kStar};
  OptimizerOptions qon_knobs;
  qon_knobs.samples = 50;
  qon_knobs.restarts = 2;
  qon_knobs.sa.iterations = 500;
  qon_knobs.sa.restarts = 1;
  qon_knobs.ga.population = 16;
  qon_knobs.ga.generations = 8;
  QohOptimizerOptions qoh_knobs;
  qoh_knobs.samples = 50;
  qoh_knobs.restarts = 2;
  qoh_knobs.sa.iterations = 500;
  qoh_knobs.sa.restarts = 1;

  const OptimizerRegistry& qon = OptimizerRegistry::Qon();
  const QohOptimizerRegistry& qoh = QohOptimizerRegistry::Get();
  std::map<std::string, int> checked;
  Rng workload_rng(2026);
  for (int trial = 0; trial < kTrials; ++trial) {
    int n = 4 + trial % 7;
    WorkloadOptions shape;
    shape.shape = kShapes[trial % 4];
    QonInstance qon_inst = RandomQonWorkload(n, &workload_rng, shape);
    QohInstance qoh_inst = RandomQohWorkload(n, &workload_rng, 0.4, shape);
    for (const std::string& name : qon.Names()) {
      if (!in_domain(name, qon.Find(name)->max_n, n)) continue;
      Rng rng(MixSeed(7, static_cast<uint64_t>(trial)));
      OptimizerResult r = qon.Run(name, qon_inst, qon_knobs, &rng);
      if (!r.feasible) continue;
      SCOPED_TRACE("QO_N " + name + " trial=" + std::to_string(trial));
      LogDouble plan = QonSequenceCost(qon_inst, r.sequence);
      if (name == "dp") {
        EXPECT_TRUE(plan.ApproxEquals(r.cost, 1e-9));
      } else {
        EXPECT_EQ(plan.Log2(), r.cost.Log2());
      }
      ++checked["qon." + name];
    }
    for (const std::string& name : qoh.Names()) {
      if (!in_domain(name, qoh.Find(name)->max_n, n)) continue;
      Rng rng(MixSeed(8, static_cast<uint64_t>(trial)));
      QohOptimizerResult r = qoh.Run(name, qoh_inst, qoh_knobs, &rng);
      if (!r.feasible) continue;
      SCOPED_TRACE("QO_H " + name + " trial=" + std::to_string(trial));
      PipelineCostResult plan =
          DecompositionCost(qoh_inst, r.sequence, r.decomposition);
      ASSERT_TRUE(plan.feasible);
      EXPECT_EQ(plan.cost.Log2(), r.cost.Log2());
      ++checked["qoh." + name];
    }
  }
  // No entry is vacuously consistent.
  for (const std::string& name : qon.Names()) {
    EXPECT_GT(checked["qon." + name], 0) << name;
  }
  for (const std::string& name : qoh.Names()) {
    EXPECT_GT(checked["qoh." + name], 0) << name;
  }
}

// --- Incremental cost evaluators are invisible (qo/cost_eval.h) ---

// The zero-allocation evaluators are a pure performance substitution:
// every registry optimizer must produce the exact (feasible, cost,
// sequence, evaluations, status) tuple it produced on the naive cost
// path. ScopedNaiveCostEvaluation flips the rewired optimizers back onto
// QonSequenceCost / OptimalDecomposition, so both arms run the *same*
// optimizer code with the same seeded RNG stream — any divergence is an
// evaluator bug, and the comparison is on raw cost bits, not an epsilon.
TEST(CostEvaluatorInvariance, QonRegistryTripleUnchangedByFastPath) {
  Rng gen(601);
  std::vector<QonInstance> instances;
  instances.push_back(RandomQonWorkload(7, &gen));
  // A tree-shaped instance so kbz runs for real instead of returning its
  // graceful non-tree infeasible result.
  {
    Graph chain = Chain(7);
    std::vector<LogDouble> sizes;
    for (int i = 0; i < 7; ++i) {
      sizes.push_back(LogDouble::FromLinear(
          static_cast<double>(gen.UniformInt(2, 5000))));
    }
    QonInstance tree(chain, std::move(sizes));
    for (const auto& [u, v] : chain.Edges()) {
      tree.SetSelectivity(u, v,
                          LogDouble::FromLinear(gen.UniformReal(0.01, 1.0)));
    }
    instances.push_back(std::move(tree));
  }
  const OptimizerRegistry& registry = OptimizerRegistry::Qon();
  for (size_t which = 0; which < instances.size(); ++which) {
    const QonInstance& inst = instances[which];
    for (uint64_t cap : {uint64_t{0}, uint64_t{5}}) {
      OptimizerOptions options;
      options.budget.max_evaluations = cap;
      for (const std::string& name : registry.Names()) {
        Rng rng_fast(900 + which);
        OptimizerResult fast = registry.Run(name, inst, options, &rng_fast);
        ScopedNaiveCostEvaluation naive_scope;
        Rng rng_naive(900 + which);
        OptimizerResult naive = registry.Run(name, inst, options, &rng_naive);
        SCOPED_TRACE(name + " cap=" + std::to_string(cap));
        EXPECT_EQ(fast.feasible, naive.feasible);
        EXPECT_EQ(fast.cost.Log2(), naive.cost.Log2());
        EXPECT_EQ(fast.sequence, naive.sequence);
        EXPECT_EQ(fast.evaluations, naive.evaluations);
        EXPECT_EQ(fast.status, naive.status);
      }
    }
  }
}

TEST(CostEvaluatorInvariance, QohRegistryTripleUnchangedByFastPath) {
  Rng gen(602);
  QohInstance inst = RandomQohWorkload(6, &gen, 0.4);
  const QohOptimizerRegistry& registry = QohOptimizerRegistry::Get();
  for (uint64_t cap : {uint64_t{0}, uint64_t{5}}) {
    QohOptimizerOptions options;
    options.budget.max_evaluations = cap;
    for (const std::string& name : registry.Names()) {
      Rng rng_fast(903);
      QohOptimizerResult fast = registry.Run(name, inst, options, &rng_fast);
      ScopedNaiveCostEvaluation naive_scope;
      Rng rng_naive(903);
      QohOptimizerResult naive = registry.Run(name, inst, options, &rng_naive);
      SCOPED_TRACE(name + " cap=" + std::to_string(cap));
      EXPECT_EQ(fast.feasible, naive.feasible);
      EXPECT_EQ(fast.cost.Log2(), naive.cost.Log2());
      EXPECT_EQ(fast.sequence, naive.sequence);
      EXPECT_EQ(fast.evaluations, naive.evaluations);
      EXPECT_EQ(fast.status, naive.status);
      EXPECT_EQ(fast.decomposition.starts, naive.decomposition.starts);
    }
  }
}

// Same invariance through the batch service: the evaluators are created
// per optimizer invocation, so batch items never share incremental state.
TEST(CostEvaluatorInvariance, ServiceBatchUnchangedByFastPath) {
  Rng gen(603);
  std::vector<QonInstance> qon_batch;
  std::vector<QohInstance> qoh_batch;
  for (int i = 0; i < 6; ++i) {
    qon_batch.push_back(RandomQonWorkload(4 + i, &gen));
    qoh_batch.push_back(RandomQohWorkload(4 + i % 4, &gen, 0.5));
  }
  BatchOptions options;
  options.optimizer = "sa";
  options.seed = 41;

  std::vector<QonBatchItem> fast = OptimizeQonBatch(qon_batch, options);
  std::vector<QohBatchItem> fast_h = OptimizeQohBatch(qoh_batch, options);
  ScopedNaiveCostEvaluation naive_scope;
  std::vector<QonBatchItem> naive = OptimizeQonBatch(qon_batch, options);
  std::vector<QohBatchItem> naive_h = OptimizeQohBatch(qoh_batch, options);

  ASSERT_EQ(fast.size(), naive.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    SCOPED_TRACE("qon item " + std::to_string(i));
    EXPECT_EQ(fast[i].result.feasible, naive[i].result.feasible);
    EXPECT_EQ(fast[i].result.cost.Log2(), naive[i].result.cost.Log2());
    EXPECT_EQ(fast[i].result.sequence, naive[i].result.sequence);
    EXPECT_EQ(fast[i].result.evaluations, naive[i].result.evaluations);
  }
  ASSERT_EQ(fast_h.size(), naive_h.size());
  for (size_t i = 0; i < fast_h.size(); ++i) {
    SCOPED_TRACE("qoh item " + std::to_string(i));
    EXPECT_EQ(fast_h[i].result.feasible, naive_h[i].result.feasible);
    EXPECT_EQ(fast_h[i].result.cost.Log2(), naive_h[i].result.cost.Log2());
    EXPECT_EQ(fast_h[i].result.sequence, naive_h[i].result.sequence);
    EXPECT_EQ(fast_h[i].result.evaluations, naive_h[i].result.evaluations);
  }
}

}  // namespace
}  // namespace aqo
