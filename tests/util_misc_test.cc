// Tests for the small util pieces: Rng, DynamicBitset, stats, TextTable.

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "util/bitset.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace aqo {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(17);
  std::vector<int> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.Count(), 0);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0) && b.Test(63) && b.Test(64) && b.Test(129));
  EXPECT_FALSE(b.Test(1) || b.Test(128));
  EXPECT_EQ(b.Count(), 4);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3);
}

TEST(Bitset, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.FindFirst(), -1);
  b.Set(5);
  b.Set(70);
  b.Set(199);
  EXPECT_EQ(b.FindFirst(), 5);
  EXPECT_EQ(b.FindNext(5), 70);
  EXPECT_EQ(b.FindNext(70), 199);
  EXPECT_EQ(b.FindNext(199), -1);
}

TEST(Bitset, SetAllRespectsSize) {
  DynamicBitset b(67);
  b.SetAll();
  EXPECT_EQ(b.Count(), 67);
  DynamicBitset c = ~b;
  EXPECT_EQ(c.Count(), 0);
}

TEST(Bitset, BitwiseOps) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_EQ((a & b).ToVector(), std::vector<int>({50}));
  EXPECT_EQ((a | b).ToVector(), std::vector<int>({1, 50, 99}));
  EXPECT_EQ((a ^ b).ToVector(), std::vector<int>({1, 99}));
  EXPECT_EQ(a.AndCount(b), 1);
  EXPECT_TRUE(a.Intersects(b));
  DynamicBitset sub(100);
  sub.Set(50);
  EXPECT_TRUE(sub.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(sub));
}

TEST(Bitset, ForEachSetBitOrdered) {
  DynamicBitset b(300);
  for (int i : {3, 64, 65, 256, 299}) b.Set(i);
  std::vector<int> seen;
  b.ForEachSetBit([&seen](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<int>({3, 64, 65, 256, 299}));
}

TEST(Stats, AccumulatorMoments) {
  StatAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

// Regression: min_/max_ used to start at 0.0, so streams that never cross
// zero could report a bound they never contained (an all-negative stream
// claiming max() == 0).
TEST(Stats, AccumulatorMinMaxOnOneSidedStreams) {
  StatAccumulator neg;
  for (double v : {-5.0, -2.0, -9.5}) neg.Add(v);
  EXPECT_DOUBLE_EQ(neg.min(), -9.5);
  EXPECT_DOUBLE_EQ(neg.max(), -2.0);

  StatAccumulator pos;
  for (double v : {4.0, 11.0, 6.5}) pos.Add(v);
  EXPECT_DOUBLE_EQ(pos.min(), 4.0);
  EXPECT_DOUBLE_EQ(pos.max(), 11.0);
}

TEST(Stats, AccumulatorEmptyReportsInfinities) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(acc.max(), -std::numeric_limits<double>::infinity());
}

TEST(Stats, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
}

TEST(Stats, PercentilesStayCorrectAcrossInterleavedAdds) {
  // Percentile sorts lazily and caches the order; an Add between reads
  // must invalidate that cache, whatever order samples arrive in.
  SampleSet s;
  s.Add(30.0);
  s.Add(10.0);
  EXPECT_NEAR(s.Percentile(0), 10.0, 1e-9);
  s.Add(5.0);  // below the current minimum, after a sorted read
  EXPECT_NEAR(s.Percentile(0), 5.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 30.0, 1e-9);
  s.Add(40.0);  // above the current maximum, after more sorted reads
  EXPECT_NEAR(s.Percentile(100), 40.0, 1e-9);
  EXPECT_NEAR(s.Median(), 20.0, 1e-9);
  // Repeated reads with no Add in between keep returning the same value.
  EXPECT_NEAR(s.Median(), 20.0, 1e-9);
}

TEST(Stats, LineFitRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  LineFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Table, PrintsAlignedRows) {
  TextTable t;
  t.SetTitle("demo");
  t.SetHeader({"n", "cost"});
  t.AddRow({"10", "2^55"});
  t.AddRow({"100", "2^5500"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("| n   | cost   |"), std::string::npos);
  EXPECT_NE(out.find("2^5500"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.14");
}

}  // namespace
}  // namespace aqo
