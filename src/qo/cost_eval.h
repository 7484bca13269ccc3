#ifndef AQO_QO_COST_EVAL_H_
#define AQO_QO_COST_EVAL_H_

// Zero-allocation incremental cost evaluators for QO_N and QO_H.
//
// The naive entry points (QonSequenceCost / OptimalDecomposition) allocate
// fresh vectors and re-validate the permutation on every call, and always
// recompute the whole sequence — even when a local-search optimizer only
// swapped two positions of the previous candidate. The evaluators below
// read sizes, selectivity rows and adjacency straight from the instance
// (S is symmetric, so row t of S is the row keyed by target t), keep every
// per-evaluation buffer as reusable scratch, and re-evaluate only the
// suffix that starts at the first changed position. The one copy is
// QonCostEvaluator's W transposed to target-major rows, the layout its
// min-access folds walk.
//
// Bit-identity invariant. Every LogDouble the evaluators produce is the
// result of the exact floating-point expression tree the naive code
// evaluates: prefix sizes fold "size, then selectivities in position
// order", min access costs fold left to right from position 0, the total
// cost folds H_1 + H_2 + ... left to right, and the QO_H pipeline/DP code
// replicates the shape construction, greedy allocation, and transition
// order of OptimalDecomposition operand for operand. Because a change at
// position p leaves every prefix value with index <= p the bitwise-same
// double, resuming the fold at p yields *bit-identical* — never merely
// approximately equal — costs. tests/cost_eval_test.cc enforces this
// differentially against the naive code. See docs/performance.md.
//
// Thread safety: an evaluator is a mutable per-invocation object; create
// one per optimizer run (QonCostEvaluator costs an O(n^2) transpose, the
// QO_H evaluator O(n)). The instance must stay alive and unmodified for
// the evaluator's lifetime.

#include <atomic>
#include <cstdint>
#include <vector>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace aqo {

namespace cost_eval_internal {
// Test-only escape hatch: when set, evaluators delegate to the naive cost
// functions (and invalidate their incremental state). Lets differential
// tests prove that rewired optimizers produce bit-identical (cost,
// sequence, evaluations) triples with and without the fast path.
extern std::atomic<bool> g_force_naive;
inline bool ForceNaive() {
  return g_force_naive.load(std::memory_order_relaxed);
}
}  // namespace cost_eval_internal

// RAII toggle for tests; not for production use.
class ScopedNaiveCostEvaluation {
 public:
  ScopedNaiveCostEvaluation();
  ~ScopedNaiveCostEvaluation();
  ScopedNaiveCostEvaluation(const ScopedNaiveCostEvaluation&) = delete;
  ScopedNaiveCostEvaluation& operator=(const ScopedNaiveCostEvaluation&) =
      delete;

 private:
  bool previous_;
};

// --- QO_N ---------------------------------------------------------------

class QonCostEvaluator {
 public:
  explicit QonCostEvaluator(const QonInstance& inst);

  int NumRelations() const { return n_; }

  // C(seq), bit-identical to QonSequenceCost(inst, seq). Diffs `seq`
  // against the previously evaluated sequence and recomputes only from the
  // first position that changed. Zero allocations.
  LogDouble Cost(const JoinSequence& seq);

  // Dense stateless primitives for constructive optimizers (greedy, branch
  // & bound). Each folds in exactly the order the naive loops do, so
  // results are bit-identical; they honor the test-only naive toggle. The
  // intermediate-size step is the instance's ExtendSize.
  //
  // min_{k in prefix} AccessCost(k, target), folded left to right.
  LogDouble MinAccess(const std::vector<int>& prefix, int target) const;
  // Same fold but seeded with `init` (branch & bound seeds with t_target).
  LogDouble MinAccessSeeded(LogDouble init, const std::vector<int>& prefix,
                            int target) const;
  // Whether `target` has a join predicate with any prefix relation.
  bool ConnectsTo(const std::vector<int>& prefix, int target) const;

 private:
  LogDouble EvaluateFrom(int first);

  const QonInstance* inst_;
  int n_ = 0;
  // W transposed so the min-access folds walk contiguous memory:
  // wt_[t*n + k] = AccessCost(k, t). The diagonal lanes are never read
  // (t is outside its own prefix).
  std::vector<LogDouble> wt_;
  // Incremental state: last sequence, N(prefix) per position, and the
  // left-to-right running cost sum after each join.
  bool valid_ = false;
  JoinSequence seq_;
  std::vector<LogDouble> prefix_;    // size n+1; prefix_[p] = N(first p)
  std::vector<LogDouble> run_cost_;  // size n; run_cost_[p] = H_1+...+H_p
};

// --- QO_H ---------------------------------------------------------------

class QohCostEvaluator {
 public:
  // Requires n >= 2 (same contract as OptimalDecomposition).
  explicit QohCostEvaluator(const QohInstance& inst);

  int NumRelations() const { return n_; }

  // Optimal pipeline decomposition of `seq`, bit-identical (feasibility,
  // cost, fragment starts, and qoh.decomp.* counter totals) to
  // OptimalDecomposition(inst, seq). The returned reference is owned by
  // the evaluator and invalidated by the next Evaluate call.
  const QohPlan& Evaluate(const JoinSequence& seq);

 private:
  void EvaluateFrom(int first_pos);
  // Cost of joins [first, last] as one pipeline; false when the memory
  // floors exceed the budget, or when `bound` is non-null and the
  // (monotone) partial cost fold strictly exceeds it — in which case the
  // candidate cannot beat or tie the DP incumbent. Requires sorted_ to
  // hold exactly these joins in slope order and none of them to be
  // build-infeasible (both maintained by the DP loop in EvaluateFrom).
  bool PipelineCost(int first, int last, const LogDouble* bound,
                    LogDouble* cost);

  const QohInstance* inst_;
  int n_ = 0;
  int total_joins_ = 0;
  double memory_linear_ = 0.0;
  LogDouble memory_;
  // Per-relation hash-build shape (pure functions of t_v and M, computed
  // once): hjmin, its linear form, the linear inner size, the extra memory
  // capacity b - hjmin, the slope denominator b - hjmin as LogDouble (only
  // when capacity > 0, exactly like the naive branch), and whether the
  // build can fit in memory at all.
  std::vector<LogDouble> rel_hjmin_;
  std::vector<double> rel_hjmin_lin_;
  std::vector<double> rel_inner_lin_;
  std::vector<double> rel_extra_cap_;
  std::vector<LogDouble> rel_denom_;
  std::vector<uint8_t> rel_build_infeasible_;
  // Incremental state.
  bool valid_ = false;
  JoinSequence seq_;
  std::vector<LogDouble> prefix_;  // size n+1 (PrefixSizes association)
  // Per-join shapes for the cached sequence, 1-based join index j: the
  // inner relation is seq_[j], the outer stream is prefix_[j].
  std::vector<LogDouble> join_opi_;    // outer + inner
  std::vector<LogDouble> join_h1_;     // (outer + inner) + inner: the g==1 term
  std::vector<LogDouble> join_slope_;  // (outer+inner)/(inner-hjmin), or 0
  std::vector<LogDouble> join_inner_;
  std::vector<double> join_hjmin_lin_;
  std::vector<double> join_extra_cap_;
  std::vector<uint8_t> join_infeasible_;
  // DP over break points, reusable across evaluations for the unchanged
  // prefix; evals_pre_[k] = reachable-gated pipeline evaluations performed
  // for transitions into joins 1..k (replicates qoh.decomp.pipeline_evals).
  std::vector<LogDouble> dp_;
  std::vector<int> parent_;
  std::vector<uint8_t> reachable_;
  std::vector<uint64_t> evals_pre_;
  // Pipeline scratch: sorted_ holds the current DP pipeline's joins in
  // decreasing-slope order (maintained by insertion as the pipeline grows
  // at the front — the comparator is a strict total order, so this is the
  // exact permutation PipelineCostImpl's std::sort produces); extra_ is
  // the greedy allocator's per-join grant, indexed by absolute join.
  std::vector<int> sorted_;
  std::vector<double> extra_;
  QohPlan plan_;
};

}  // namespace aqo

#endif  // AQO_QO_COST_EVAL_H_
