#ifndef AQO_UTIL_LOG_DOUBLE_H_
#define AQO_UTIL_LOG_DOUBLE_H_

// LogDouble: a non-negative real number stored in base-2 log domain.
//
// The hardness constructions of Chatterji et al. (PODS 2002) manipulate
// relation sizes and plan costs of magnitude alpha^{Theta(n^2)} with
// alpha = 4^{n^{1/delta}} — far beyond any machine float. Every inequality
// in the paper's lemmas compares such quantities, so we carry log2(x) as a
// double:
//   * multiplication / division / powers are exact float operations on the
//     exponent;
//   * addition / subtraction use log-sum-exp and are accurate to ~1 ulp of
//     the exponent, which is all the lemma comparisons need (they compare
//     quantities separated by factors >= alpha).
//
// Zero is representable (log2 = -infinity). Negative values are not; the
// cost models never produce them, and operations that would (subtracting a
// larger value) abort via AQO_CHECK.

#include <cmath>
#include <algorithm>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>

#include "util/check.h"

namespace aqo {

// log2(2^a + 2^b) on raw log2-domain doubles, with -infinity (zero) as the
// additive identity. The one log-sum-exp of the project: LogDouble's
// operator+ and the swap pricer of qo/fast_eval.h both call it, so a fold
// of the same terms in the same order yields the same bits in either.
inline double LogAddExp2(double a, double b) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  constexpr double kLn2 = 0.6931471805599453;
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  // log2(2^a + 2^b) = max + log2(1 + 2^(min-max)).
  double hi = a, lo = b;
  if (hi < lo) std::swap(hi, lo);
  return hi + std::log1p(std::exp2(lo - hi)) / kLn2;
}

class LogDouble {
 public:
  // Default-constructs zero.
  constexpr LogDouble() : log2_(-std::numeric_limits<double>::infinity()) {}

  // Conversion from a linear-domain value. v must be finite and >= 0.
  static LogDouble FromLinear(double v) {
    AQO_CHECK(v >= 0.0 && std::isfinite(v)) << "v=" << v;
    LogDouble r;
    if (v > 0.0) r.log2_ = std::log2(v);
    return r;
  }

  // Constructs the value 2^l. l may be any double; -inf yields zero.
  static LogDouble FromLog2(double l) {
    AQO_CHECK(!std::isnan(l));
    AQO_CHECK(l != std::numeric_limits<double>::infinity());
    LogDouble r;
    r.log2_ = l;
    return r;
  }

  static constexpr LogDouble Zero() { return LogDouble(); }
  static LogDouble One() { return FromLog2(0.0); }

  bool IsZero() const { return std::isinf(log2_) && log2_ < 0; }

  // log2 of the value; -infinity for zero.
  double Log2() const { return log2_; }

  // Converts back to linear domain; overflows to +inf for huge values.
  double ToLinear() const { return std::exp2(log2_); }

  LogDouble operator*(LogDouble o) const {
    if (IsZero() || o.IsZero()) return Zero();
    return FromLog2(log2_ + o.log2_);
  }

  LogDouble operator/(LogDouble o) const {
    AQO_CHECK(!o.IsZero()) << "division by zero";
    if (IsZero()) return Zero();
    return FromLog2(log2_ - o.log2_);
  }

  LogDouble operator+(LogDouble o) const {
    return FromLog2(LogAddExp2(log2_, o.log2_));
  }

  // Subtraction; requires *this >= o (up to exponent rounding). If the two
  // operands are equal to within float precision the result is zero.
  LogDouble operator-(LogDouble o) const {
    if (o.IsZero()) return *this;
    AQO_CHECK(log2_ >= o.log2_) << "negative result: 2^" << log2_ << " - 2^"
                                << o.log2_;
    double d = o.log2_ - log2_;  // <= 0
    double factor = -std::expm1(d * kLn2);  // 1 - 2^d in [0, 1)
    if (factor <= 0.0) return Zero();
    return FromLog2(log2_ + std::log2(factor));
  }

  LogDouble& operator*=(LogDouble o) { return *this = *this * o; }
  LogDouble& operator/=(LogDouble o) { return *this = *this / o; }
  LogDouble& operator+=(LogDouble o) { return *this = *this + o; }
  LogDouble& operator-=(LogDouble o) { return *this = *this - o; }

  // Raises to an arbitrary real power. Pow(0) == 1 even for zero input
  // (empty product convention).
  LogDouble Pow(double e) const {
    if (e == 0.0) return One();
    if (IsZero()) {
      AQO_CHECK(e > 0.0) << "0 to a negative power";
      return Zero();
    }
    return FromLog2(log2_ * e);
  }

  LogDouble Sqrt() const { return Pow(0.5); }

  // Comparison is exact on the stored exponents.
  friend bool operator==(LogDouble a, LogDouble b) { return a.log2_ == b.log2_; }
  friend std::partial_ordering operator<=>(LogDouble a, LogDouble b) {
    return a.log2_ <=> b.log2_;
  }

  // True when the two values agree to within `rel_log2_tol` in the exponent,
  // i.e. a/b is within 2^{+-rel_log2_tol}. Handy for property tests.
  bool ApproxEquals(LogDouble o, double rel_log2_tol = 1e-9) const {
    if (IsZero() && o.IsZero()) return true;
    if (IsZero() || o.IsZero()) return false;
    double scale = std::max({1.0, std::fabs(log2_), std::fabs(o.log2_)});
    return std::fabs(log2_ - o.log2_) <= rel_log2_tol * scale;
  }

 private:
  static constexpr double kLn2 = 0.6931471805599453;

  double log2_;
};

inline LogDouble MaxOf(LogDouble a, LogDouble b) { return a < b ? b : a; }
inline LogDouble MinOf(LogDouble a, LogDouble b) { return a < b ? a : b; }

// Prints as a linear value when it fits comfortably in double range,
// otherwise as "2^<exponent>".
std::ostream& operator<<(std::ostream& os, LogDouble v);

}  // namespace aqo

#endif  // AQO_UTIL_LOG_DOUBLE_H_
