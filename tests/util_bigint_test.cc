#include "util/bigint.h"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/random.h"

namespace aqo {
namespace {

using I128 = __int128;

BigInt FromI128(I128 v) {
  bool neg = v < 0;
  unsigned __int128 mag = neg ? static_cast<unsigned __int128>(-(v + 1)) + 1
                              : static_cast<unsigned __int128>(v);
  BigInt r = BigInt::FromUint64(static_cast<uint64_t>(mag >> 64));
  r = (r << 64) + BigInt::FromUint64(static_cast<uint64_t>(mag));
  return neg ? -r : r;
}

std::string I128ToString(I128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  std::string s;
  unsigned __int128 mag = neg ? static_cast<unsigned __int128>(-(v + 1)) + 1
                              : static_cast<unsigned __int128>(v);
  while (mag != 0) {
    s.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
    mag /= 10;
  }
  if (neg) s.push_back('-');
  std::reverse(s.begin(), s.end());
  return s;
}

TEST(BigInt, ZeroBasics) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.BitLength(), 0);
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigInt(12345), z);
}

TEST(BigInt, SmallValues) {
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-42).ToString(), "-42");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
}

TEST(BigInt, ToStringMatchesInt128) {
  // Two-limb magnitudes and the boundaries of ToString's base-10^9 chunks.
  I128 max = static_cast<I128>(~static_cast<unsigned __int128>(0) >> 1);
  for (I128 v : {I128{0}, I128{1}, I128{-1}, I128{1000000000},
                 I128{999999999999999999}, static_cast<I128>(1) << 64,
                 (static_cast<I128>(1) << 64) - 1, max, -max}) {
    EXPECT_EQ(FromI128(v).ToString(), I128ToString(v));
  }
}

TEST(BigInt, AdditionMatchesInt128) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    I128 a = static_cast<I128>(rng.Next()) * (rng.Bernoulli(0.5) ? 1 : -1);
    I128 b = static_cast<I128>(rng.Next()) * (rng.Bernoulli(0.5) ? 1 : -1);
    EXPECT_EQ((FromI128(a) + FromI128(b)).ToString(), I128ToString(a + b));
    EXPECT_EQ((FromI128(a) - FromI128(b)).ToString(), I128ToString(a - b));
  }
}

TEST(BigInt, MultiplicationMatchesInt128) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = rng.UniformInt(-1000000000, 1000000000) * rng.UniformInt(0, 1 << 20);
    int64_t b = rng.UniformInt(-1000000000, 1000000000);
    I128 prod = static_cast<I128>(a) * b;
    EXPECT_EQ((BigInt(a) * BigInt(b)).ToString(), I128ToString(prod));
  }
}

TEST(BigInt, Shifts) {
  BigInt one = 1;
  EXPECT_EQ((one << 200).BitLength(), 201);
  EXPECT_EQ(((one << 200) >> 200), one);
  EXPECT_EQ((BigInt(5) << 3).ToString(), "40");
  EXPECT_EQ((BigInt(40) >> 3).ToString(), "5");
  EXPECT_EQ((BigInt(40) >> 100).ToString(), "0");
}

// x << k is x * 2^k, and x >> 1 is x / 2 truncated toward zero (the sort
// memory n_0 / 2 of InTwoPassSortRegime).
TEST(BigInt, ShiftsMatchInt128) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next() >> 1);
    if (rng.Bernoulli(0.5)) a = -a;
    int bits = static_cast<int>(rng.UniformInt(0, 63));
    I128 shifted = static_cast<I128>(a) * (static_cast<I128>(1) << bits);
    EXPECT_EQ((BigInt(a) << bits).ToString(), I128ToString(shifted));
    EXPECT_EQ((FromI128(shifted) >> 1).ToString(), I128ToString(shifted / 2));
    EXPECT_EQ((BigInt(a) >> 1).ToString(), I128ToString(a / 2));
  }
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  I128 e20 = static_cast<I128>(10000000000) * 10000000000;
  EXPECT_LT(FromI128(e20 - 1), FromI128(e20));
  EXPECT_LT(FromI128(-e20), FromI128(1 - e20));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigInt, MixedArithmeticReadsNaturally) {
  BigInt x = 10;
  EXPECT_EQ((x * 3 + 1).ToString(), "31");
  EXPECT_EQ((x - 20).ToString(), "-10");
}

}  // namespace
}  // namespace aqo
