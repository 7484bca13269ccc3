#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "util/check.h"

namespace aqo {

namespace {

// Divides a magnitude by a small constant in place, returning the remainder.
uint64_t DivModSmall(std::vector<uint64_t>* limbs, uint64_t div) {
  unsigned __int128 rem = 0;
  for (size_t i = limbs->size(); i-- > 0;) {
    unsigned __int128 cur = (rem << 64) | (*limbs)[i];
    (*limbs)[i] = static_cast<uint64_t>(cur / div);
    rem = cur % div;
  }
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
  return static_cast<uint64_t>(rem);
}

}  // namespace

BigInt::BigInt(int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Careful with INT64_MIN: negate in unsigned domain.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  limbs_.push_back(mag);
}

BigInt BigInt::FromUint64(uint64_t v) {
  BigInt r;
  if (v != 0) r.limbs_.push_back(v);
  return r;
}

void BigInt::Canonicalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  int top = 64 - std::countl_zero(limbs_.back());
  return static_cast<int>(limbs_.size() - 1) * 64 + top;
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  std::vector<uint64_t> mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    uint64_t chunk = DivModSmall(&mag, 1000000000ULL);
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.IsZero()) r.negative_ = !r.negative_;
  return r;
}

std::strong_ordering BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() <=> b.limbs_.size();
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_)
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  auto mag = BigInt::CompareMagnitude(a, b);
  return a.negative_ ? 0 <=> mag : mag;
}

std::vector<uint64_t> BigInt::AddMagnitude(const std::vector<uint64_t>& a,
                                           const std::vector<uint64_t>& b) {
  const std::vector<uint64_t>& lo = a.size() < b.size() ? a : b;
  const std::vector<uint64_t>& hi = a.size() < b.size() ? b : a;
  std::vector<uint64_t> r(hi.size());
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < hi.size(); ++i) {
    unsigned __int128 cur = carry + hi[i] + (i < lo.size() ? lo[i] : 0);
    r[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  if (carry != 0) r.push_back(static_cast<uint64_t>(carry));
  return r;
}

std::vector<uint64_t> BigInt::SubMagnitude(const std::vector<uint64_t>& a,
                                           const std::vector<uint64_t>& b) {
  std::vector<uint64_t> r(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 sub =
        static_cast<unsigned __int128>(i < b.size() ? b[i] : 0) +
        static_cast<unsigned __int128>(borrow);
    if (static_cast<unsigned __int128>(a[i]) >= sub) {
      r[i] = static_cast<uint64_t>(a[i] - static_cast<uint64_t>(sub));
      borrow = 0;
    } else {
      unsigned __int128 cur =
          (static_cast<unsigned __int128>(1) << 64) + a[i] - sub;
      r[i] = static_cast<uint64_t>(cur);
      borrow = 1;
    }
  }
  AQO_CHECK(borrow == 0) << "SubMagnitude requires |a| >= |b|";
  return r;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt r;
  if (negative_ == o.negative_) {
    r.limbs_ = AddMagnitude(limbs_, o.limbs_);
    r.negative_ = negative_;
  } else {
    auto cmp = CompareMagnitude(*this, o);
    if (cmp == std::strong_ordering::equal) return BigInt();
    if (cmp == std::strong_ordering::greater) {
      r.limbs_ = SubMagnitude(limbs_, o.limbs_);
      r.negative_ = negative_;
    } else {
      r.limbs_ = SubMagnitude(o.limbs_, limbs_);
      r.negative_ = o.negative_;
    }
  }
  r.Canonicalize();
  return r;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  if (IsZero() || o.IsZero()) return BigInt();
  BigInt r;
  r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    unsigned __int128 carry = 0;
    for (size_t j = 0; j < o.limbs_.size(); ++j) {
      unsigned __int128 cur = static_cast<unsigned __int128>(limbs_[i]) *
                                  o.limbs_[j] +
                              r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    size_t k = i + o.limbs_.size();
    while (carry != 0) {
      unsigned __int128 cur = carry + r.limbs_[k];
      r.limbs_[k] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  r.negative_ = negative_ != o.negative_;
  r.Canonicalize();
  return r;
}

BigInt BigInt::operator<<(int bits) const {
  AQO_CHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  int limb_shift = bits / 64;
  int bit_shift = bits % 64;
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() + static_cast<size_t>(limb_shift) + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    size_t pos = i + static_cast<size_t>(limb_shift);
    r.limbs_[pos] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) r.limbs_[pos + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  r.Canonicalize();
  return r;
}

BigInt BigInt::operator>>(int bits) const {
  AQO_CHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  int limb_shift = bits / 64;
  int bit_shift = bits % 64;
  if (static_cast<size_t>(limb_shift) >= limbs_.size()) return BigInt();
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() - static_cast<size_t>(limb_shift), 0);
  for (size_t i = 0; i < r.limbs_.size(); ++i) {
    size_t src = i + static_cast<size_t>(limb_shift);
    r.limbs_[i] = bit_shift == 0 ? limbs_[src] : (limbs_[src] >> bit_shift);
    if (bit_shift != 0 && src + 1 < limbs_.size())
      r.limbs_[i] |= limbs_[src + 1] << (64 - bit_shift);
  }
  r.Canonicalize();
  return r;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace aqo
