#ifndef AQO_UTIL_BITSET_H_
#define AQO_UTIL_BITSET_H_

// DynamicBitset: a fixed-size-at-construction bitset on 64-bit words.
//
// The graph substrate stores adjacency rows as bitsets so that the clique
// branch & bound can intersect candidate sets in word-parallel time; graphs
// in this library reach a few thousand vertices.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace aqo {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(int size)
      : size_(size), words_(WordCount(size), 0) {
    AQO_CHECK(size >= 0);
  }

  int size() const { return size_; }

  void Set(int i) {
    AQO_DCHECK(InRange(i));
    words_[static_cast<size_t>(i >> 6)] |= 1ULL << (i & 63);
  }

  void Reset(int i) {
    AQO_DCHECK(InRange(i));
    words_[static_cast<size_t>(i >> 6)] &= ~(1ULL << (i & 63));
  }

  void Assign(int i, bool value) { value ? Set(i) : Reset(i); }

  bool Test(int i) const {
    AQO_DCHECK(InRange(i));
    return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1;
  }

  void SetAll() {
    std::fill(words_.begin(), words_.end(), ~0ULL);
    TrimTail();
  }

  int Count() const {
    int c = 0;
    for (uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  bool None() const { return !Any(); }

  // Index of the lowest set bit, or -1 when empty.
  int FindFirst() const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] != 0)
        return static_cast<int>(wi * 64) + std::countr_zero(words_[wi]);
    }
    return -1;
  }

  // Index of the lowest set bit strictly greater than `i`, or -1.
  int FindNext(int i) const {
    int start = i + 1;
    if (start >= size_) return -1;
    size_t wi = static_cast<size_t>(start >> 6);
    uint64_t w = words_[wi] & (~0ULL << (start & 63));
    while (true) {
      if (w != 0) return static_cast<int>(wi * 64) + std::countr_zero(w);
      if (++wi >= words_.size()) return -1;
      w = words_[wi];
    }
  }

  DynamicBitset& operator&=(const DynamicBitset& o) {
    AQO_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  DynamicBitset& operator|=(const DynamicBitset& o) {
    AQO_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  DynamicBitset& operator^=(const DynamicBitset& o) {
    AQO_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
    return *this;
  }

  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator^(DynamicBitset a, const DynamicBitset& b) {
    a ^= b;
    return a;
  }

  // Bitwise complement within [0, size).
  DynamicBitset operator~() const {
    DynamicBitset r = *this;
    for (uint64_t& w : r.words_) w = ~w;
    r.TrimTail();
    return r;
  }

  // |this AND o| without materializing the intersection.
  int AndCount(const DynamicBitset& o) const {
    AQO_DCHECK(size_ == o.size_);
    int c = 0;
    for (size_t i = 0; i < words_.size(); ++i)
      c += std::popcount(words_[i] & o.words_[i]);
    return c;
  }

  bool Intersects(const DynamicBitset& o) const {
    AQO_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & o.words_[i]) != 0) return true;
    }
    return false;
  }

  bool IsSubsetOf(const DynamicBitset& o) const {
    AQO_DCHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    }
    return true;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) = default;

  // Calls f(i) for every set bit, in increasing order.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        int bit = std::countr_zero(w);
        f(static_cast<int>(wi * 64) + bit);
        w &= w - 1;
      }
    }
  }

  // The set bits collected into a vector, increasing.
  std::vector<int> ToVector() const {
    std::vector<int> v;
    v.reserve(static_cast<size_t>(Count()));
    ForEachSetBit([&v](int i) { v.push_back(i); });
    return v;
  }

 private:
  static size_t WordCount(int size) {
    return static_cast<size_t>((size + 63) / 64);
  }

  bool InRange(int i) const { return 0 <= i && i < size_; }

  // Clears bits at positions >= size_ in the last word.
  void TrimTail() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    }
  }

  int size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace aqo

#endif  // AQO_UTIL_BITSET_H_
