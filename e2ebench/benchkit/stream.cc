#include "stream.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "graph/graph.h"
#include "util/log_double.h"

namespace e2ebench {

namespace {

constexpr int kHotN = 30;
// Every hot base has half of the 435 possible edges, so bases of a family
// cost alike to parse and canonicalize and no seed draws a cheaper pool.
constexpr int kHotEdges = 217;
constexpr int kHotBasesPerFamily = 16;
constexpr double kHotZipf = 1.1;
constexpr double kEdgeProbability = 0.5;
constexpr double kMinSize = 10.0;
constexpr double kMaxSize = 1e6;
constexpr double kMinSelectivity = 1e-5;
// QO_H budget as a share of the summed relation sizes: generous enough
// that every generated instance has feasible plans.
constexpr double kQohMemoryShare = 0.5;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  SplitMix64 rng(seed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  return rng.Next();
}

std::string G17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Appends " <v>" with %.17g, which round-trips the double.
void AppendField(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.17g", v);
  out->append(buf);
}

void AppendInt(std::string* out, int v) {
  char buf[16];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end);
}

// A random query graph: G(n, kEdgeProbability), or exactly `edges` edges
// drawn uniformly when edges >= 0.
InstanceSpec RandomSpec(bool qoh, int n, SplitMix64* rng, int edges = -1) {
  InstanceSpec spec;
  spec.qoh = qoh;
  spec.n = n;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    double lg = rng->Uniform(std::log2(kMinSize), std::log2(kMaxSize));
    spec.log2_size.push_back(lg);
    total += std::exp2(lg);
  }
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (edges >= 0 || rng->Uniform() < kEdgeProbability) pairs.push_back({u, v});
    }
  }
  if (edges >= 0) {
    for (int k = 0; k < edges; ++k) {
      int pick = k + rng->Below(static_cast<int>(pairs.size()) - k);
      std::swap(pairs[static_cast<size_t>(k)], pairs[static_cast<size_t>(pick)]);
    }
    pairs.resize(static_cast<size_t>(edges));
    std::sort(pairs.begin(), pairs.end());
  }
  for (const auto& [u, v] : pairs) {
    double s = rng->Uniform(kMinSelectivity, 1.0);
    spec.edges.emplace_back(u, v, std::log2(s));
  }
  if (qoh) spec.memory = std::max(1.0, kQohMemoryShare * total);
  return spec;
}

std::string Header(uint64_t id, const std::string& optimizer) {
  std::string out = "req " + std::to_string(id);
  if (!optimizer.empty()) out += " optimizer=" + optimizer;
  out += "\n";
  return out;
}

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int SplitMix64::Below(int bound) {
  return static_cast<int>(Next() % static_cast<uint64_t>(bound));
}

std::string InstanceText(const InstanceSpec& spec) {
  std::string out = spec.qoh ? "qoh " : "qon ";
  AppendInt(&out, spec.n);
  if (spec.qoh) {
    AppendField(&out, spec.memory);
    AppendField(&out, spec.eta);
  }
  out += "\n";
  for (int i = 0; i < spec.n; ++i) {
    out += "rel ";
    AppendInt(&out, i);
    AppendField(&out, spec.log2_size[static_cast<size_t>(i)]);
    out += "\n";
  }
  for (const auto& [u, v, lg] : spec.edges) {
    out += "edge ";
    AppendInt(&out, u);
    out += " ";
    AppendInt(&out, v);
    AppendField(&out, lg);
    out += "\n";
  }
  return out;
}

aqo::QonInstance BuildQon(const InstanceSpec& spec) {
  aqo::Graph g(spec.n);
  for (const auto& [u, v, lg] : spec.edges) g.AddEdge(u, v);
  std::vector<aqo::LogDouble> sizes;
  for (double lg : spec.log2_size) sizes.push_back(aqo::LogDouble::FromLog2(lg));
  aqo::QonInstance inst(std::move(g), std::move(sizes));
  for (const auto& [u, v, lg] : spec.edges) {
    inst.SetSelectivity(u, v, aqo::LogDouble::FromLog2(lg));
  }
  return inst;
}

aqo::QohInstance BuildQoh(const InstanceSpec& spec) {
  aqo::Graph g(spec.n);
  for (const auto& [u, v, lg] : spec.edges) g.AddEdge(u, v);
  std::vector<aqo::LogDouble> sizes;
  for (double lg : spec.log2_size) sizes.push_back(aqo::LogDouble::FromLog2(lg));
  aqo::QohInstance inst(std::move(g), std::move(sizes), spec.memory, spec.eta);
  for (const auto& [u, v, lg] : spec.edges) {
    inst.SetSelectivity(u, v, aqo::LogDouble::FromLog2(lg));
  }
  return inst;
}

StreamGenerator::StreamGenerator(const std::string& workload, uint64_t seed)
    : seed_(seed) {
  if (workload == "serve_cold") {
    ok_ = true;
    return;
  }
  if (workload != "serve_hot") return;
  ok_ = true;
  hot_ = true;
  int pool = 2 * kHotBasesPerFamily;
  for (int b = 0; b < pool; ++b) {
    SplitMix64 rng(Mix(seed, 0xba5e0000ULL + static_cast<uint64_t>(b)));
    Base base;
    base.spec = RandomSpec(/*qoh=*/b >= kHotBasesPerFamily, kHotN, &rng,
                           kHotEdges);
    for (double lg : base.spec.log2_size) base.size_text.push_back(G17(lg));
    for (const auto& [u, v, lg] : base.spec.edges) {
      base.edge_text.push_back(G17(lg));
    }
    bases_.push_back(std::move(base));
  }
  double total = 0.0;
  for (int k = 1; k <= kHotBasesPerFamily; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kHotZipf);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  // Which base of a family takes which popularity rank is the seed's
  // shuffle; rank_to_base_[f * kHotBasesPerFamily + rank] is a base index.
  SplitMix64 rng(Mix(seed, 0x2a4b0000ULL));
  for (int family = 0; family < 2; ++family) {
    std::vector<int> order(static_cast<size_t>(kHotBasesPerFamily));
    std::iota(order.begin(), order.end(), family * kHotBasesPerFamily);
    for (int i = kHotBasesPerFamily - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.Below(i + 1))]);
    }
    rank_to_base_.insert(rank_to_base_.end(), order.begin(), order.end());
  }
}

size_t StreamGenerator::WarmCount() const { return bases_.size(); }

Request StreamGenerator::Warm(size_t i) const {
  Request r;
  r.id = i + 1;
  r.optimizer = "greedy";
  r.spec = bases_[i].spec;
  r.payload = Header(r.id, r.optimizer) + InstanceText(r.spec);
  return r;
}

Request StreamGenerator::Timed(size_t i) const {
  Request r;
  r.id = WarmCount() + i + 1;
  SplitMix64 rng(Mix(seed_, i));
  if (!hot_) {
    int kind = static_cast<int>(i % 3);
    r.optimizer = kind == 0 ? "dp" : "ii";
    r.spec = RandomSpec(/*qoh=*/kind == 2, kind == 0 ? 10 : 8, &rng);
    r.payload = Header(r.id, r.optimizer) + InstanceText(r.spec);
    return r;
  }
  // Two QO_N requests, then one QO_H, every seed alike: the family mix,
  // and with it the latency percentiles, does not depend on the draw.
  size_t family = i % 3 == 2 ? 1 : 0;
  double u = rng.Uniform();
  size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  rank = std::min(rank, zipf_cdf_.size() - 1);
  const Base& base = bases_[static_cast<size_t>(
      rank_to_base_[family * kHotBasesPerFamily + rank])];
  int n = base.spec.n;
  // perm[old] = new label: a fresh relabeling per request.
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int k = n - 1; k > 0; --k) {
    std::swap(perm[static_cast<size_t>(k)],
              perm[static_cast<size_t>(rng.Below(k + 1))]);
  }
  r.optimizer = "greedy";
  r.spec = base.spec;
  std::vector<int> inverse(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    r.spec.log2_size[static_cast<size_t>(perm[static_cast<size_t>(v)])] =
        base.spec.log2_size[static_cast<size_t>(v)];
    inverse[static_cast<size_t>(perm[static_cast<size_t>(v)])] = v;
  }
  // Edges keep their selectivity text; only the labels change.
  std::vector<std::pair<std::tuple<int, int, double>, size_t>> edges;
  edges.reserve(base.spec.edges.size());
  for (size_t e = 0; e < base.spec.edges.size(); ++e) {
    const auto& [a, b, lg] = base.spec.edges[e];
    int x = perm[static_cast<size_t>(a)];
    int y = perm[static_cast<size_t>(b)];
    edges.push_back({{std::min(x, y), std::max(x, y), lg}, e});
  }
  std::sort(edges.begin(), edges.end());
  r.spec.edges.clear();
  for (const auto& [edge, e] : edges) r.spec.edges.push_back(edge);

  std::string& out = r.payload;
  out = Header(r.id, r.optimizer);
  out.reserve(out.size() + 40 * (static_cast<size_t>(n) + edges.size()));
  out += base.spec.qoh ? "qoh " : "qon ";
  AppendInt(&out, n);
  if (base.spec.qoh) {
    AppendField(&out, base.spec.memory);
    AppendField(&out, base.spec.eta);
  }
  out += "\n";
  for (int v = 0; v < n; ++v) {
    out += "rel ";
    AppendInt(&out, v);
    out += " ";
    out += base.size_text[static_cast<size_t>(inverse[static_cast<size_t>(v)])];
    out += "\n";
  }
  for (const auto& [edge, e] : edges) {
    out += "edge ";
    AppendInt(&out, std::get<0>(edge));
    out += " ";
    AppendInt(&out, std::get<1>(edge));
    out += " ";
    out += base.edge_text[e];
    out += "\n";
  }
  return r;
}

}  // namespace e2ebench
