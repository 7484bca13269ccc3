#include "tests/instance_oracle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace aqo {

namespace {

bool SameBits(LogDouble a, LogDouble b) {
  return std::bit_cast<uint64_t>(a.Log2()) == std::bit_cast<uint64_t>(b.Log2());
}

std::string At(const char* what, int i, int j) {
  std::ostringstream os;
  os << what << " at (" << i << "," << j << ")";
  return os.str();
}

std::string JoinGraphViolation(const JoinGraph& g) {
  int n = g.NumRelations();
  for (int i = 0; i < n; ++i) {
    if (!(g.size(i) > LogDouble::Zero())) return At("size not > 0", i, i);
    for (int j = 0; j < n; ++j) {
      LogDouble s = g.selectivity(i, j);
      if (!SameBits(s, g.selectivity(j, i))) return At("asymmetric S", i, j);
      if (i != j && g.graph().HasEdge(i, j)) {
        if (!(s > LogDouble::Zero() && s <= LogDouble::One())) {
          return At("edge selectivity outside (0, 1]", i, j);
        }
      } else if (!SameBits(s, LogDouble::One())) {
        return At("selectivity not One() off the edges", i, j);
      }
    }
  }
  return "";
}

}  // namespace

std::string QonInvariantViolation(const QonInstance& inst) {
  std::string error = JoinGraphViolation(inst);
  int n = inst.NumRelations();
  for (int k = 0; k < n && error.empty(); ++k) {
    for (int j = 0; j < n && error.empty(); ++j) {
      if (k == j) continue;
      LogDouble w = inst.AccessCost(k, j);
      if (!(inst.size(j) * inst.selectivity(k, j) <= w && w <= inst.size(j))) {
        error = At("access cost outside [t_j s_kj, t_j]", k, j);
      }
    }
  }
  return error;
}

std::string QohInvariantViolation(const QohInstance& inst) {
  std::string error = JoinGraphViolation(inst);
  if (error.empty() && !(std::isfinite(inst.memory()) && inst.memory() > 0.0)) {
    error = "memory not finite and > 0";
  }
  if (error.empty() && !(inst.eta() > 0.0 && inst.eta() < 1.0)) {
    error = "eta outside (0, 1)";
  }
  return error;
}

}  // namespace aqo
