#ifndef AQO_UTIL_BIGINT_H_
#define AQO_UTIL_BIGINT_H_

// BigInt: arbitrary-precision signed integers.
//
// The Appendix A/B reductions (PARTITION -> SPPCS -> SQO-CP) construct exact
// integers such as J = (4*ks*prod p_i)^2 and n_i = (m+1)*n0*J^3*c_i whose
// many-one property depends on exact arithmetic; machine integers overflow
// for even tiny source instances. BigInt provides the exact substrate.
//
// Representation: sign + little-endian magnitude in 64-bit limbs, kept
// canonical (no leading zero limbs; zero has an empty limb vector and
// non-negative sign). The reductions need only +, -, *, shifts and
// comparison, so there is no division. Multiplication is schoolbook only:
// no operand in any table exceeds 6 limbs.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aqo {

class BigInt {
 public:
  // Zero.
  BigInt() = default;

  // Implicit conversion from machine integers is intentional: BigInt is a
  // drop-in numeric type and mixed arithmetic (x * 3 + 1) reads naturally.
  BigInt(int64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<int64_t>(v)) {}  // NOLINT

  static BigInt FromUint64(uint64_t v);

  bool IsZero() const { return limbs_.empty(); }
  // -1, 0, or +1.
  int Sign() const { return limbs_.empty() ? 0 : (negative_ ? -1 : 1); }

  // Number of bits in the magnitude; 0 for zero.
  int BitLength() const;

  std::string ToString() const;

  BigInt operator-() const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  // Shifts operate on the magnitude; sign is preserved. Shift counts are in
  // bits and must be >= 0. x >> 1 is x / 2 truncated toward zero.
  BigInt operator<<(int bits) const;
  BigInt operator>>(int bits) const;

  friend bool operator==(const BigInt& a, const BigInt& b) = default;
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

 private:
  void Canonicalize();
  static std::strong_ordering CompareMagnitude(const BigInt& a,
                                               const BigInt& b);
  static std::vector<uint64_t> AddMagnitude(const std::vector<uint64_t>& a,
                                            const std::vector<uint64_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint64_t> SubMagnitude(const std::vector<uint64_t>& a,
                                            const std::vector<uint64_t>& b);

  bool negative_ = false;
  std::vector<uint64_t> limbs_;  // little-endian magnitude
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace aqo

#endif  // AQO_UTIL_BIGINT_H_
