#ifndef AQO_E2EBENCH_STREAM_H_
#define AQO_E2EBENCH_STREAM_H_

// Request streams for the serve_* workloads.
//
// The benchmark makes its own inputs: a splitmix64 generator seeded from
// --seed, independent of the program's Rng, so a change to the program
// never changes what it is asked. Request i of a stream is a pure
// function of (workload, seed, i), which lets the load client build each
// request just before sending it and lets the oracle and the replay
// rebuild the same request afterwards without storing it.
//
//   serve_hot   QO_N and QO_H instances at n=30 (random query graphs with
//               217 of the 435 possible edges), two QO_N to one QO_H, each
//               a fresh relabeling of a base drawn Zipf(1.1) from its
//               family's 16 bases; every request pins optimizer=greedy.
//               A warm pass sends each base once.
//   serve_cold  distinct random instances, interleaved: QO_N dp at n=10,
//               QO_N ii at n=8, QO_H ii at n=8.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace e2ebench {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1).
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  // Uniform in [0, bound).
  int Below(int bound);

 private:
  uint64_t state_;
};

// An instance as the benchmark generated it: log2 sizes and (u, v, log2
// selectivity) edges, written to the wire with %.17g so the server parses
// back exactly these doubles.
struct InstanceSpec {
  bool qoh = false;
  int n = 0;
  std::vector<double> log2_size;
  std::vector<std::tuple<int, int, double>> edges;  // u < v, sorted
  double memory = 0.0;  // QO_H only
  double eta = 0.5;     // QO_H only
};

struct Request {
  uint64_t id = 0;
  std::string optimizer;  // registry name pinned in the header
  InstanceSpec spec;
  std::string payload;  // the frame payload: header line + instance text
};

class StreamGenerator {
 public:
  // Unknown workload names leave ok() false.
  StreamGenerator(const std::string& workload, uint64_t seed);

  bool ok() const { return ok_; }
  // Untimed requests sent before the timed ones (serve_hot's warm pass).
  size_t WarmCount() const;
  Request Warm(size_t i) const;
  // Timed request i (ids continue after the warm pass).
  Request Timed(size_t i) const;

 private:
  struct Base {
    InstanceSpec spec;
    std::vector<std::string> size_text;  // %.17g of log2_size
    std::vector<std::string> edge_text;  // %.17g of each edge's log2
  };

  bool ok_ = false;
  bool hot_ = false;
  uint64_t seed_;
  std::vector<Base> bases_;
  std::vector<double> zipf_cdf_;
  std::vector<int> rank_to_base_;
};

// The instance text format of io/serialization.h.
std::string InstanceText(const InstanceSpec& spec);

// Instances built directly from the generated doubles, bit-identical to
// what ParseQonInstance / ParseQohInstance make of InstanceText(spec).
aqo::QonInstance BuildQon(const InstanceSpec& spec);
aqo::QohInstance BuildQoh(const InstanceSpec& spec);

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_STREAM_H_
