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
//     from its size, then, while the partition keeps getting finer, mix
//     each key with the wrapping sum of Mix64(neighbour key ^ edge
//     attribute) over its edges, where an edge's attribute hashes its
//     selectivity and (QO_N) its access cost out of and into the
//     relation. A sum is order-free, so the keys are label-invariant
//     without sorting, and relabeled duplicates sort into byte-identical
//     canonical instances. (Keys that remain tied are broken by original
//     index; for truly automorphic relations any choice yields the same
//     canonical bytes, and where refinement fails to separate
//     non-automorphic relations — possible on highly regular instances —
//     the result is only a missed cache hit, never a wrong one.)
//   * The fingerprint is a 128-bit hash of the *entire* canonical
//     instance: the wrapping sum of independent 128-bit hashes of its
//     records, which are the header (family, n, edge count, and for QO_H
//     the memory budget and eta), each size at its canonical position,
//     and each edge at its canonical pair (cu < cv) with its selectivity
//     and (QO_N) its access costs cu -> cv and cv -> cu. Each record is
//     hashed by two Mix64 chains from different seeds. Equal fingerprints
//     imply equal canonical instances up to hash collision (~2^-64 per
//     pair).
//   * The permutation is retained both ways, so cached sequences — which
//     live in canonical labels — map back to the caller's labels with
//     MapSequenceFromCanonical. Both cost models evaluate a sequence in
//     strict position order, so the mapped-back sequence costs bitwise
//     the same in the original instance as the canonical sequence does
//     in the canonical one (the property test asserts exact Log2 bits).
//
// Canonicalization is two steps. The label step (LabelQon / LabelQoh)
// computes the order, both permutations and the fingerprint from the
// flat form (qo/flat_instance.h), which a reader produces from text
// without building an instance; an instance is flattened first. The
// relabel step (PermuteQ*Instance, or BuildQ*Instance from the flat form)
// builds the canonical instance. A plan-cache hit needs only the first;
// CanonicalizeQon / CanonicalizeQoh run both.

#include <vector>

#include "qo/flat_instance.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "util/hash.h"

namespace aqo {

// Relabels relation i as perm[i], copying sizes, selectivities and
// (for QO_N) the access costs of every edge. perm must be a permutation
// of 0..n-1.
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

// The label step. The fingerprint hashes PermuteQ*Instance(inst,
// to_canonical), without building it. An instance and its flat form (from
// FlattenQ*, or read from the instance's written text) get the same
// labels.
CanonicalLabels LabelQon(const FlatQon& flat);
CanonicalLabels LabelQoh(const FlatQoh& flat);
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
