#ifndef AQO_QO_FINGERPRINT_H_
#define AQO_QO_FINGERPRINT_H_

// Canonical relabeling and content fingerprints for QO_N / QO_H instances.
//
// Two instances that differ only by a permutation of relation labels are
// the *same* optimization problem: the cost models consult sizes,
// selectivities and access paths only through a relation's identity,
// never its numeric id (tests/property_test.cc proves this as a
// metamorphic invariant). The reductions of Sections 4-5 emit exactly
// such families — structurally identical instances under different
// labelings — so a plan cache keyed on raw labels would miss almost
// everything. Canonicalization fixes that:
//
//   * Relations are relabeled into a canonical order computed by
//     iterative key refinement (1-WL style): start each relation's key
//     from its cardinality, then repeatedly fold in the sorted multiset
//     of (neighbor key, selectivity, access costs) tuples until the
//     partition stabilizes. The refined keys are label-invariant by
//     construction, so relabeled duplicates sort into byte-identical
//     canonical instances. (Keys that remain tied are broken by original
//     index; for truly automorphic relations any choice yields the same
//     canonical bytes, and where refinement fails to separate
//     non-automorphic relations — possible on highly regular instances —
//     the result is only a missed cache hit, never a wrong one.)
//   * The fingerprint is a 128-bit hash of the *entire* canonical
//     instance (sizes, edges, selectivities, access costs, and for QO_H
//     the memory budget and eta), so equal fingerprints imply equal
//     canonical instances up to hash collision (~2^-64 per pair).
//   * The permutation is retained both ways, so cached sequences — which
//     live in canonical labels — map back to the caller's labels with
//     MapSequenceFromCanonical. Both cost models evaluate a sequence in
//     strict position order, so the mapped-back sequence costs bitwise
//     the same in the original instance as the canonical sequence does
//     in the canonical one (the property test asserts exact Log2 bits).
//
// Canonicalization is two steps. The label step (LabelQon / LabelQoh)
// computes the order, both permutations and the fingerprint, hashing the
// canonical instance's words in canonical order straight from the
// caller's instance; it builds no instance. The relabel step
// (PermuteQ*Instance) builds the canonical instance. A plan-cache hit
// needs only the first; CanonicalizeQon / CanonicalizeQoh run both.

#include <vector>

#include "qo/qoh.h"
#include "qo/qon.h"
#include "util/hash.h"

namespace aqo {

// Relabels relation i as perm[i], copying sizes, selectivities and
// (for QO_N) explicit access-path costs. perm must be a permutation of
// 0..n-1.
QonInstance PermuteQonInstance(const QonInstance& inst,
                               const std::vector<int>& perm);
QohInstance PermuteQohInstance(const QohInstance& inst,
                               const std::vector<int>& perm);

// The canonical relabeling of an instance and the fingerprint of the
// relabeled instance.
struct CanonicalLabels {
  std::vector<int> to_canonical;    // to_canonical[original] = canonical
  std::vector<int> from_canonical;  // from_canonical[canonical] = original
  Hash128 fingerprint;              // hash of the full canonical instance
};

// The label step. The fingerprint has the bits of hashing
// PermuteQ*Instance(inst, to_canonical), without building it.
CanonicalLabels LabelQon(const QonInstance& inst);
CanonicalLabels LabelQoh(const QohInstance& inst);

template <typename Instance>
struct Canonical : CanonicalLabels {
  Instance instance;  // canonically relabeled
};
using CanonicalQon = Canonical<QonInstance>;
using CanonicalQoh = Canonical<QohInstance>;

// The label step, then PermuteQ*Instance(inst, to_canonical).
CanonicalQon CanonicalizeQon(const QonInstance& inst);
CanonicalQoh CanonicalizeQoh(const QohInstance& inst);

// Maps a sequence over canonical labels back to the original labels:
// out[k] = from_canonical[seq[k]].
JoinSequence MapSequenceFromCanonical(const JoinSequence& seq,
                                      const std::vector<int>& from_canonical);

}  // namespace aqo

#endif  // AQO_QO_FINGERPRINT_H_
