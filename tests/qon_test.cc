// Tests for the QO_N instance and nested-loops cost model (paper §2.1).

#include "qo/qon.h"

#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "qo/qoh.h"
#include "tests/instance_oracle.h"
#include "util/random.h"

namespace aqo {
namespace {

// Independent linear-domain reference implementation of the §2.1 cost
// model, for small instances whose numbers fit in double.
double ReferenceCost(const QonInstance& inst, const JoinSequence& seq) {
  double cost = 0.0;
  double inter = inst.size(seq[0]).ToLinear();
  for (size_t i = 1; i < seq.size(); ++i) {
    int j = seq[i];
    double min_w = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < i; ++k) {
      min_w = std::min(min_w, inst.AccessCost(seq[k], j).ToLinear());
    }
    cost += inter * min_w;
    double next = inter * inst.size(j).ToLinear();
    for (size_t k = 0; k < i; ++k) {
      if (inst.graph().HasEdge(seq[k], j))
        next *= inst.selectivity(seq[k], j).ToLinear();
    }
    inter = next;
  }
  return cost;
}

QonInstance RandomSmallInstance(int n, Rng* rng) {
  Graph g = Gnp(n, 0.5, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(LogDouble::FromLinear(
        static_cast<double>(rng->UniformInt(2, 1000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng->UniformReal(0.01, 1.0)));
  }
  return inst;
}

// A JoinGraph& reads an instance but cannot change it: QonInstance
// re-derives W on every selectivity change, so only the families may
// expose the setter. Sizes, and QO_H's memory, are fixed at construction.
template <typename T>
concept SetsSelectivity =
    requires(T& g) { g.SetSelectivity(0, 1, LogDouble::One()); };
template <typename T>
concept SetsSize = requires(T& g) { g.SetSize(0, LogDouble::One()); };
template <typename T>
concept SetsMemory = requires(T& g) { g.SetMemory(1.0); };
static_assert(!SetsSelectivity<JoinGraph> && !SetsSize<JoinGraph>);
static_assert(!std::is_assignable_v<JoinGraph&, const JoinGraph&>);
static_assert(SetsSelectivity<QonInstance> && !SetsSize<QonInstance>);
static_assert(SetsSelectivity<QohInstance> && !SetsSize<QohInstance> &&
              !SetsMemory<QohInstance>);

uint64_t Bits(LogDouble x) { return std::bit_cast<uint64_t>(x.Log2()); }

TEST(QonInstance, DefaultsAndValidation) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  QonInstance inst(g, {LogDouble::FromLinear(10.0), LogDouble::FromLinear(20.0),
                       LogDouble::FromLinear(40.0)});
  // Non-edge: selectivity 1, access cost t_j.
  EXPECT_EQ(inst.selectivity(0, 2).Log2(), 0.0);
  EXPECT_DOUBLE_EQ(inst.AccessCost(0, 2).ToLinear(), 40.0);
  // Edge with selectivity: access cost defaults to t_j * s.
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  EXPECT_DOUBLE_EQ(inst.AccessCost(0, 1).ToLinear(), 10.0);
  EXPECT_DOUBLE_EQ(inst.AccessCost(1, 0).ToLinear(), 5.0);
  EXPECT_EQ(QonInvariantViolation(inst), "");
}

TEST(QonInstance, AccessCostOverrideWithinBounds) {
  Graph g = Graph::FromEdges(2, {{0, 1}});
  QonInstance inst(g, {LogDouble::FromLinear(100.0), LogDouble::FromLinear(100.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.1));
  inst.SetAccessCost(0, 1, LogDouble::FromLinear(50.0));  // in [10, 100]
  EXPECT_DOUBLE_EQ(inst.AccessCost(0, 1).ToLinear(), 50.0);
  EXPECT_EQ(QonInvariantViolation(inst), "");
}

// Random sequences of the two mutators hold every invariant, and each
// call leaves the access costs it promises: SetSelectivity re-derives the
// two it touches to their defaults, overridden or not, and SetAccessCost
// sets exactly one.
TEST(QonInstance, RandomMutatorSequencesKeepTheInvariants) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 9));
    QonInstance inst = RandomSmallInstance(n, &rng);
    std::vector<std::pair<int, int>> edges = inst.graph().Edges();
    for (int step = 0; step < 200; ++step) {
      int op = static_cast<int>(rng.UniformInt(0, 1));
      double draw = rng.UniformReal();
      if (op == 0 && !edges.empty()) {
        auto [i, j] = edges[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(edges.size()) - 1))];
        LogDouble sel = draw < 0.1   ? LogDouble::One()
                        : draw < 0.2 ? LogDouble::FromLog2(-1000.0)
                                     : LogDouble::FromLinear(
                                           rng.UniformReal(1e-6, 1.0));
        inst.SetSelectivity(i, j, sel);
        EXPECT_EQ(Bits(inst.AccessCost(i, j)), Bits(inst.size(j) * sel));
        EXPECT_EQ(Bits(inst.AccessCost(j, i)), Bits(inst.size(i) * sel));
      } else {
        int k = static_cast<int>(rng.UniformInt(0, n - 1));
        int j = static_cast<int>(rng.UniformInt(0, n - 2));
        if (j >= k) ++j;
        LogDouble lo = inst.size(j) * inst.selectivity(k, j);
        LogDouble hi = inst.size(j);
        // Either end of [lo, hi], or a point between them.
        LogDouble w =
            draw < 0.2   ? lo
            : draw < 0.4 ? hi
                         : MinOf(hi, LogDouble::FromLog2(
                                         lo.Log2() + rng.UniformReal() *
                                                         (hi.Log2() - lo.Log2())));
        inst.SetAccessCost(k, j, w);
        EXPECT_EQ(Bits(inst.AccessCost(k, j)), Bits(w));
      }
      ASSERT_EQ(QonInvariantViolation(inst), "")
          << "trial " << trial << ", step " << step;
    }
  }
}

TEST(QonCost, PrefixSizesMatchHandComputation) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  QonInstance inst(g, {LogDouble::FromLinear(10.0), LogDouble::FromLinear(20.0),
                       LogDouble::FromLinear(30.0)});
  inst.SetSelectivity(0, 1, LogDouble::FromLinear(0.5));
  inst.SetSelectivity(1, 2, LogDouble::FromLinear(0.1));
  std::vector<LogDouble> sizes = PrefixSizes(inst, {0, 1, 2});
  EXPECT_DOUBLE_EQ(sizes[0].ToLinear(), 1.0);
  EXPECT_DOUBLE_EQ(sizes[1].ToLinear(), 10.0);
  EXPECT_DOUBLE_EQ(sizes[2].ToLinear(), 100.0);   // 10*20*0.5
  EXPECT_NEAR(sizes[3].ToLinear(), 300.0, 1e-9);  // 100*30*0.1
}

TEST(QonCost, MatchesLinearReferenceOnRandomInstances) {
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 8));
    QonInstance inst = RandomSmallInstance(n, &rng);
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    double reference = ReferenceCost(inst, seq);
    LogDouble cost = QonSequenceCost(inst, seq);
    EXPECT_NEAR(cost.ToLinear(), reference, reference * 1e-9)
        << "n=" << n << " trial=" << trial;
  }
}

TEST(QonCost, JoinCostsSumToSequenceCost) {
  Rng rng(42);
  QonInstance inst = RandomSmallInstance(7, &rng);
  JoinSequence seq = IdentitySequence(7);
  std::vector<LogDouble> h = QonJoinCosts(inst, seq);
  EXPECT_EQ(h.size(), 6u);
  LogDouble sum = LogDouble::Zero();
  for (LogDouble x : h) sum += x;
  EXPECT_TRUE(sum.ApproxEquals(QonSequenceCost(inst, seq), 1e-9));
}

TEST(QonCost, CartesianProductDetection) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  JoinSequence with_cp = {0, 1, 2, 3};
  EXPECT_TRUE(HasCartesianProduct(g, with_cp));
  Graph connected = Chain(4);
  EXPECT_FALSE(HasCartesianProduct(connected, {1, 0, 2, 3}));
  EXPECT_TRUE(HasCartesianProduct(connected, {0, 2, 1, 3}));
}

TEST(QonCost, BackEdgeCounts) {
  Graph g = Graph::Complete(4);
  JoinSequence seq = {0, 1, 2, 3};
  EXPECT_EQ(BackEdgeCounts(g, seq), (std::vector<int>{0, 1, 2, 3}));
}

TEST(QonCost, ScalesWithAccessCosts) {
  // Doubling every access cost doubles the total cost.
  Rng rng(43);
  Graph g = Gnp(6, 0.6, &rng);
  std::vector<LogDouble> sizes(6, LogDouble::FromLinear(64.0));
  QonInstance a(g, sizes);
  QonInstance b(g, sizes);
  for (const auto& [u, v] : g.Edges()) {
    a.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
    b.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
    b.SetAccessCost(u, v, LogDouble::FromLinear(32.0));  // 2x the default 16
    b.SetAccessCost(v, u, LogDouble::FromLinear(32.0));
  }
  JoinSequence seq = IdentitySequence(6);
  LogDouble ca = QonSequenceCost(a, seq);
  LogDouble cb = QonSequenceCost(b, seq);
  EXPECT_GE(cb, ca);
  EXPECT_LE(cb, ca * LogDouble::FromLinear(2.0 + 1e-9));
}

TEST(QonCost, HugeInstanceStaysFinite) {
  // The f_N regime: alpha = 2^100, t = alpha^{0.6 n}, n = 30.
  Rng rng(44);
  Graph g = Gnp(30, 0.9, &rng);
  LogDouble alpha = LogDouble::FromLog2(100.0);
  LogDouble t = alpha.Pow(0.6 * 30);
  std::vector<LogDouble> sizes(30, t);
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::One() / alpha);
  }
  JoinSequence seq = IdentitySequence(30);
  LogDouble cost = QonSequenceCost(inst, seq);
  EXPECT_TRUE(std::isfinite(cost.Log2()));
  EXPECT_GT(cost.Log2(), 1000.0);
}

}  // namespace
}  // namespace aqo
