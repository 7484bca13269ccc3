#include "qo/fast_eval.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/log_double.h"

namespace aqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Largest magnitude bound of the integer regime: every partial sum either
// evaluator forms stays within 2 * 2^52, where every integer is a double.
constexpr double kExactBound = 0x1p52;

obs::Counter& NeighborhoodsCounter() {
  static obs::Counter& c =
      obs::Registry::Get().GetCounter("qo.fast_eval.neighborhoods");
  return c;
}

obs::Counter& CandidatesCounter() {
  static obs::Counter& c =
      obs::Registry::Get().GetCounter("qo.fast_eval.candidates");
  return c;
}

// Elementwise kernels over contiguous rows, the second operand an
// instance row read as raw log2: lanewise IEEE add and `a < b ? a : b`
// min, branch-free so the compiler may vectorize them.
void RowAdd(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const LogDouble* AQO_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = a[i] + b[i].Log2();
}

void RowMin(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const LogDouble* AQO_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = a[i] < b[i].Log2() ? a[i] : b[i].Log2();
  }
}

// dst = min(dst, src).
void RowMinInPlace(double* AQO_RESTRICT dst,
                   const LogDouble* AQO_RESTRICT src, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = src[i].Log2() < dst[i] ? src[i].Log2() : dst[i];
  }
}

// Whether a log2-domain input is an integer: the integer regime's test.
bool IsInteger(double x) { return std::isfinite(x) && std::floor(x) == x; }

}  // namespace

QonNeighborhoodEvaluator::QonNeighborhoodEvaluator(const QonInstance& inst)
    : inst_(&inst), n_(inst.NumRelations()) {
  size_t n = static_cast<size_t>(n_);
  double max_lt = 0.0, max_ms = 0.0, max_lw = 0.0;
  bool integer = true;
  for (int t = 0; t < n_; ++t) {
    double lt = inst.size(t).Log2();
    max_lt = std::max(max_lt, std::fabs(lt));
    integer = integer && IsInteger(lt);
    for (int k = 0; k < n_; ++k) {
      if (k != t) {
        double lw = inst.AccessCost(k, t).Log2();
        max_lw = std::max(max_lw, std::fabs(lw));
        integer = integer && IsInteger(lw);
      }
      // Relation k's contribution to the prefix-size fold toward t: log2
      // s_kt on an edge, an exact +0.0 elsewhere (the diagonal included).
      double ms = inst.selectivity(k, t).Log2();
      max_ms = std::max(max_ms, std::fabs(ms));
      integer = integer && IsInteger(ms);
    }
  }
  // Certified bound: the fast and naive folds each perform O(n^2)
  // floating-point operations on log2-domain values whose magnitude is
  // bounded by A (prefix exponents accumulate at most n sizes and n^2
  // masked selectivities; per-join terms add one access cost). Every
  // operation perturbs the running value by at most a few ulps of A, the
  // log-sum-exp steps are Lipschitz-1 in each operand, and re-association
  // is exact in real arithmetic — so the two results differ by at most
  // C * n^2 * u * A for a small C. 64 leaves an order-of-magnitude
  // cushion; tests/fast_eval_test.cc and tests/property_test.cc check it.
  double nn = static_cast<double>(n_);
  double a_bound = 1.0 + nn * max_lt + nn * nn * max_ms + max_lw;
  // Integer regime: integer inputs with every prefix size and join term
  // within A <= 2^52, so every partial sum either evaluator forms is an
  // integer of magnitude at most 2A <= 2^53 — exact in double, whatever
  // the association. The fast join terms are then the exact evaluator's,
  // bit for bit, and PriceSwap folds them in its order: the price is the
  // exact cost.
  exact_ = integer && a_bound <= kExactBound;
  eps_log2_ = exact_ ? 0.0 : 64.0 * nn * nn * DBL_EPSILON * a_bound;
  seq_.resize(n);
  lp_.resize(n + 1);
  mp_.resize(n * n);
  ps_.resize(n * n);
  term_.resize(n);
  fwd_.resize(std::max<size_t>(n, 1));
  if (!exact_) bwd_.resize(n + 1);
  cur_min_.resize(n);
}

void QonNeighborhoodEvaluator::Load(const JoinSequence& seq) {
  AQO_CHECK(static_cast<int>(seq.size()) == n_);
  AQO_DCHECK(IsPermutation(seq, n_));
  NeighborhoodsCounter().Increment();
  std::copy(seq.begin(), seq.end(), seq_.begin());
  loaded_ = true;
  if (n_ == 0) return;
  size_t n = static_cast<size_t>(n_);
  std::fill(mp_.begin(), mp_.begin() + static_cast<long>(n), kInf);
  std::fill(ps_.begin(), ps_.begin() + static_cast<long>(n), 0.0);
  lp_[0] = 0.0;
  for (size_t p = 1; p < n; ++p) {
    int u = seq_[p - 1];
    RowMin(mp_.data() + p * n, mp_.data() + (p - 1) * n,
           inst_->AccessCostRow(u), n_);
    RowAdd(ps_.data() + p * n, ps_.data() + (p - 1) * n,
           inst_->SelectivityRow(u), n_);
    lp_[p] = lp_[p - 1] + inst_->size(u).Log2() +
             ps_[(p - 1) * n + static_cast<size_t>(u)];
  }
  {
    int u = seq_[n - 1];
    lp_[n] = lp_[n - 1] + inst_->size(u).Log2() +
             ps_[(n - 1) * n + static_cast<size_t>(u)];
  }
  // Per-join log2 terms and their log-sum-exp partial folds. fwd_ is the
  // exact evaluator's left fold; bwd_ lets a certified price reuse the
  // untouched joins after its span: their real values are unchanged, and
  // outside the integer regime this evaluator is free to re-associate.
  for (size_t p = 1; p < n; ++p) {
    term_[p] = lp_[p] + mp_[p * n + static_cast<size_t>(seq_[p])];
  }
  fwd_[0] = kNegInf;
  for (size_t p = 1; p < n; ++p) fwd_[p] = LogAddExp2(fwd_[p - 1], term_[p]);
  if (exact_) return;
  bwd_[n] = kNegInf;
  for (size_t p = n; p-- > 1;) bwd_[p] = LogAddExp2(term_[p], bwd_[p + 1]);
}

double QonNeighborhoodEvaluator::PriceSwap(int i, int j) {
  AQO_CHECK(loaded_);
  AQO_CHECK(0 <= i && i < j && j < n_);
  CandidatesCounter().Increment();
  size_t n = static_cast<size_t>(n_);
  size_t si = static_cast<size_t>(i), sj = static_cast<size_t>(j);
  size_t x = static_cast<size_t>(seq_[si]);
  size_t y = static_cast<size_t>(seq_[sj]);
  // Joins before position i are untouched; joins after position j keep
  // their real value (same prefix multiset, same access-cost set), so the
  // fold continues from fwd_ and only walks the changed span.
  double acc = i >= 1 ? fwd_[si - 1] : kNegInf;
  if (i >= 1) acc = LogAddExp2(acc, lp_[si] + mp_[si * n + y]);
  // Running min-access row over {seq[0..i-1], y} and running candidate
  // prefix exponent; ps_ rows are corrected for the x -> y substitution
  // via the two masked-selectivity rows of x and y.
  RowMin(cur_min_.data(), mp_.data() + si * n,
         inst_->AccessCostRow(seq_[sj]), n_);
  const LogDouble* AQO_RESTRICT msx = inst_->SelectivityRow(seq_[si]);
  const LogDouble* AQO_RESTRICT msy = inst_->SelectivityRow(seq_[sj]);
  double clp = lp_[si] + inst_->size(seq_[sj]).Log2() + ps_[si * n + y];
  for (size_t p = si + 1; p < sj; ++p) {
    int u = seq_[p];
    size_t v = static_cast<size_t>(u);
    acc = LogAddExp2(acc, clp + cur_min_[v]);
    clp += inst_->size(u).Log2() +
           (ps_[p * n + v] - msx[v].Log2() + msy[v].Log2());
    RowMinInPlace(cur_min_.data(), inst_->AccessCostRow(u), n_);
  }
  acc = LogAddExp2(acc, clp + cur_min_[x]);
  if (!exact_) return LogAddExp2(acc, bwd_[sj + 1]);
  // Integer regime: the joins after j have the loaded terms bit for bit,
  // so the exact cost continues the left fold across them. Once the
  // running value meets the loaded fold, the rest of the fold is the
  // loaded one.
  size_t p = sj;
  while (acc != fwd_[p]) {
    if (++p == n) return acc;
    acc = LogAddExp2(acc, term_[p]);
  }
  return fwd_[n - 1];
}

}  // namespace aqo
