#include "qo/workloads.h"

#include <cmath>

#include "graph/generators.h"
#include "util/check.h"

namespace aqo {

namespace {

LogDouble LogUniformSize(Rng* rng, const WorkloadOptions& options) {
  AQO_CHECK(options.min_size >= 1.0 && options.max_size >= options.min_size);
  double lg = rng->UniformReal(std::log2(options.min_size),
                               std::log2(options.max_size));
  return LogDouble::FromLog2(lg);
}

LogDouble UniformSelectivity(Rng* rng, const WorkloadOptions& options) {
  AQO_CHECK(0.0 < options.min_selectivity &&
            options.min_selectivity <= options.max_selectivity &&
            options.max_selectivity <= 1.0);
  return LogDouble::FromLinear(
      rng->UniformReal(options.min_selectivity, options.max_selectivity));
}

// The shape's query graph alone.
Graph WorkloadGraph(int n, Rng* rng, const WorkloadOptions& options) {
  switch (options.shape) {
    case WorkloadShape::kChain:
      return Chain(n);
    case WorkloadShape::kStar:
      return Star(n);
    case WorkloadShape::kTree:
      return RandomTree(n, rng);
    case WorkloadShape::kCycle:
      return Cycle(n);
    case WorkloadShape::kClique:
      return Graph::Complete(n);
    case WorkloadShape::kRandom:
      return Gnp(n, options.edge_probability, rng);
  }
  AQO_CHECK(false) << "unknown shape";
}

}  // namespace

QonInstance RandomQonWorkload(int n, Rng* rng, const WorkloadOptions& options) {
  Graph g = WorkloadGraph(n, rng, options);
  std::vector<LogDouble> sizes;
  sizes.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) sizes.push_back(LogUniformSize(rng, options));
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, UniformSelectivity(rng, options));
  }
  return inst;
}

QohInstance RandomQohWorkload(int n, Rng* rng, double memory_fraction,
                              const WorkloadOptions& options) {
  AQO_CHECK(memory_fraction > 0.0);
  Graph g = WorkloadGraph(n, rng, options);
  std::vector<LogDouble> sizes;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    // Keep sizes in exact double range: hash tables must be allocatable.
    WorkloadOptions bounded = options;
    bounded.max_size = std::min(options.max_size, 1e9);
    LogDouble s = LogUniformSize(rng, bounded);
    total += s.ToLinear();
    sizes.push_back(s);
  }
  QohInstance inst(g, std::move(sizes), std::max(1.0, total * memory_fraction));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, UniformSelectivity(rng, options));
  }
  return inst;
}

}  // namespace aqo
