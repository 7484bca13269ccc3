#ifndef AQO_QO_FLAT_INSTANCE_H_
#define AQO_QO_FLAT_INSTANCE_H_

// The flat form of a QO_N or QO_H instance: the relation count, the log2
// sizes and the edge list with each edge's log2 values, and nothing of
// size n x n. It is what the label step reads (qo/fingerprint.h) and what
// the builders below turn into an instance. The instance readers
// (io/serialization.h) read text into it, so a served plan-cache hit
// builds no instance at all and a miss builds only the canonical one
// (qo/service.h).
//
// Every value is the raw log2 whose bits the built instance holds: the
// builders pass each through LogDouble::FromLog2 unchanged.

#include <vector>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace aqo {

// One predicate {u, v}, u != v, listed once.
struct FlatEdge {
  int u = 0;
  int v = 0;
  double selectivity = 0.0;  // log2 s_uv, at most 0
};

// A QO_N edge with both of its access costs: an override, or the default
// t_v * s_uv (t_u * s_uv the other way) when there is none.
struct FlatQonEdge : FlatEdge {
  double cost_uv = 0.0;  // log2 AccessCost(u, v)
  double cost_vu = 0.0;  // log2 AccessCost(v, u)
};

struct FlatQon {
  int n = 0;
  std::vector<double> sizes;  // log2 t_i, i = 0..n-1
  std::vector<FlatQonEdge> edges;
};

struct FlatQoh {
  int n = 0;
  std::vector<double> sizes;
  std::vector<FlatEdge> edges;
  double memory = 0.0;  // linear pages, as QohInstance holds it
  double eta = 0.5;
};

// The flat form of an instance, edges in Graph::Edges() order. A QO_N
// access cost between relations with no edge is not kept: it equals its
// default in value, and a relabeling re-derives it.
FlatQon FlattenQon(const QonInstance& inst);
FlatQoh FlattenQoh(const QohInstance& inst);

// Builds the instance with relation i relabeled perm[i] (no perm: as
// listed). perm must be a permutation of 0..n-1, and `flat` must hold
// what an instance may: finite log2 sizes, each pair at most once with
// 0 < s <= 1, and QO_N costs in [t_j s, t_j] (the setters CHECK it).
// BuildQ*Instance(FlattenQ*(inst), perm) is PermuteQ*Instance(inst, perm).
QonInstance BuildQonInstance(const FlatQon& flat,
                             const std::vector<int>& perm = {});
QohInstance BuildQohInstance(const FlatQoh& flat,
                             const std::vector<int>& perm = {});

}  // namespace aqo

#endif  // AQO_QO_FLAT_INSTANCE_H_
