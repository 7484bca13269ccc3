// aqo_loadgen — seeded workload generator and driver for aqo_serve.
//
// Two modes:
//
//   * generate (default): writes a stream of request frames (io/framing.h,
//     protocol in tools/aqo_serve.cc) to --out= or stdout. Pipe it into
//     aqo_serve, or save it to replay the identical byte stream against a
//     cold and a warm server (the warm-start differential ctest does
//     exactly that).
//   * drive (--serve=<path-to-aqo_serve> [--serve-args="..."]): forks the
//     server over a pipe pair, sends the same stream with open-loop
//     pacing (--pace-ms= between arrivals, independent of response
//     times), reads responses, and records per-request round-trip latency
//     into the loadgen.request_us histogram — print percentiles with
//     --latency-table, or export everything with --json-out.
//
// The workload is a heavy-tailed duplicate mix: --bases= distinct random
// instances (qo/workloads.h) are sampled per arrival from a Zipf(--zipf=)
// distribution over base rank, and every arrival is relabeled by a fresh
// seeded permutation (qo/fingerprint.h). Repeat arrivals of a base are
// therefore duplicate work under canonical fingerprinting — a server-side
// cache should converge to a hit rate near 1 - bases/requests. Everything
// is a pure function of --seed.
//
// --optimizer=<name> stamps an `optimizer=` token into every request
// header so the server runs that registry entry; --optimizer=help prints
// both registries' listings.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "io/framing.h"
#include "io/serialization.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "qo/fingerprint.h"
#include "qo/workloads.h"
#include "util/check.h"
#include "util/random.h"

namespace aqo {
namespace {

WorkloadShape ShapeFromName(const std::string& name) {
  if (name == "chain") return WorkloadShape::kChain;
  if (name == "star") return WorkloadShape::kStar;
  if (name == "tree") return WorkloadShape::kTree;
  if (name == "cycle") return WorkloadShape::kCycle;
  if (name == "clique") return WorkloadShape::kClique;
  if (name == "random") return WorkloadShape::kRandom;
  std::cerr << "error: unknown --shape '" << name
            << "' (chain|star|tree|cycle|clique|random)\n";
  std::exit(2);
}

// Zipf(s) over ranks 0..k-1 by inverse-CDF on the normalized harmonic
// weights — k is small (the base pool), so the linear scan is fine.
class ZipfPicker {
 public:
  ZipfPicker(int k, double skew) : cdf_(static_cast<size_t>(k)) {
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Pick(Rng* rng) const {
    double u = rng->UniformReal();
    for (size_t i = 0; i < cdf_.size(); ++i) {
      if (u < cdf_[i]) return static_cast<int>(i);
    }
    return static_cast<int>(cdf_.size()) - 1;
  }

 private:
  std::vector<double> cdf_;
};

struct Workload {
  std::vector<std::string> frames;  // request payloads, arrival order
};

Workload BuildWorkload(const bench::Flags& flags) {
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int requests = static_cast<int>(flags.GetInt("requests", 200));
  int bases = static_cast<int>(flags.GetInt("bases", 8));
  int n = static_cast<int>(flags.GetInt("n", 9));
  double zipf = flags.GetDouble("zipf", 1.1);
  std::string family = flags.GetString("family", "qon");
  AQO_CHECK(family == "qon" || family == "qoh");
  // --optimizer=<name> rides along in every request header so the server
  // runs that entry (validated here against the family's registry, aliases
  // resolved); --optimizer=help prints the registry listings and exits.
  std::string optimizer = flags.GetString("optimizer");
  if (optimizer == "help") {
    std::cout << OptimizerRegistry::Qon().Describe()
              << QohOptimizerRegistry::Get().Describe();
    std::exit(0);
  }
  if (!optimizer.empty()) {
    if (family == "qon") {
      const auto* entry = OptimizerRegistry::Qon().Find(optimizer);
      if (entry == nullptr) {
        std::cerr << "error: unknown QO_N optimizer '" << optimizer
                  << "' in --optimizer=\n";
        std::exit(2);
      }
      optimizer = entry->name;
    } else {
      const auto* entry = QohOptimizerRegistry::Get().Find(optimizer);
      if (entry == nullptr) {
        std::cerr << "error: unknown QO_H optimizer '" << optimizer
                  << "' in --optimizer=\n";
        std::exit(2);
      }
      optimizer = entry->name;
    }
  }
  WorkloadOptions wopts;
  wopts.shape = ShapeFromName(flags.GetString("shape", "random"));
  wopts.edge_probability = flags.GetDouble("edge-prob", 0.5);

  std::vector<QonInstance> qon_bases;
  std::vector<QohInstance> qoh_bases;
  for (int b = 0; b < bases; ++b) {
    Rng rng(MixSeed(seed, static_cast<uint64_t>(b)));
    if (family == "qon") {
      qon_bases.push_back(RandomQonWorkload(n, &rng, wopts));
    } else {
      qoh_bases.push_back(RandomQohWorkload(n, &rng, 0.3, wopts));
    }
  }

  Workload workload;
  ZipfPicker picker(bases, zipf);
  Rng arrivals(MixSeed(seed, 0x4c4f4144u));  // "LOAD"
  for (int r = 0; r < requests; ++r) {
    int base = picker.Pick(&arrivals);
    std::vector<int> perm(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
    arrivals.Shuffle(&perm);
    std::ostringstream payload;
    payload << "req r" << r;
    if (!optimizer.empty()) payload << " optimizer=" << optimizer;
    payload << "\n";
    if (family == "qon") {
      WriteQonInstance(PermuteQonInstance(qon_bases[static_cast<size_t>(base)],
                                          perm),
                       payload);
    } else {
      WriteQohInstance(PermuteQohInstance(qoh_bases[static_cast<size_t>(base)],
                                          perm),
                       payload);
    }
    workload.frames.push_back(payload.str());
  }
  return workload;
}

// Sleeps --pace-ms= after each frame (0 = back to back).
void PaceAfter(double pace_ms) {
  if (pace_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(pace_ms));
  }
}

int Drive(const Workload& workload, const std::string& serve_path,
          const std::string& serve_args, double pace_ms) {
  int to_server[2];
  int from_server[2];
  AQO_CHECK(::pipe(to_server) == 0 && ::pipe(from_server) == 0);
  pid_t pid = ::fork();
  AQO_CHECK(pid >= 0);
  if (pid == 0) {
    ::dup2(to_server[0], STDIN_FILENO);
    ::dup2(from_server[1], STDOUT_FILENO);
    ::close(to_server[0]);
    ::close(to_server[1]);
    ::close(from_server[0]);
    ::close(from_server[1]);
    std::vector<std::string> arg_strings;
    arg_strings.push_back(serve_path);
    std::istringstream split(serve_args);
    for (std::string a; split >> a;) arg_strings.push_back(a);
    std::vector<char*> argv;
    for (std::string& a : arg_strings) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(serve_path.c_str(), argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(to_server[0]);
  ::close(from_server[1]);

  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> sent(workload.frames.size());

  // Open-loop writer: arrivals are paced by the schedule alone, never by
  // response progress (a slow server just sees the queue deepen).
  std::thread writer([&] {
    for (size_t i = 0; i < workload.frames.size(); ++i) {
      sent[i] = Clock::now();
      if (!WriteFrameFd(to_server[1], workload.frames[i])) break;
      PaceAfter(pace_ms);
    }
    ::close(to_server[1]);  // EOF → graceful server shutdown
  });

  obs::Histogram& latency =
      obs::Registry::Get().GetHistogram("loadgen.request_us");
  std::string payload;
  size_t index = 0;
  while (index < workload.frames.size()) {
    int read = ReadFrameFd(from_server[0], &payload);
    if (read <= 0) break;
    // Responses come back in request order (the server is serial).
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              sent[index])
            .count());
    latency.Record(us);
    ++index;
  }
  writer.join();
  ::close(from_server[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::cerr << "aqo_loadgen: " << index << "/" << workload.frames.size()
            << " responses; server "
            << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << "\n";
  if (index < workload.frames.size()) {
    std::cerr << "error: server stream ended after " << index << " of "
              << workload.frames.size() << " responses\n";
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::RunLogSession session(flags, "aqo_loadgen", /*default_seed=*/1);

  Workload workload = BuildWorkload(flags);
  std::string serve_path = flags.GetString("serve");
  double pace_ms = flags.GetDouble("pace-ms", 0.0);
  if (!serve_path.empty()) {
    return Drive(workload, serve_path, flags.GetString("serve-args"), pace_ms);
  }

  std::string out_path = flags.GetString("out");
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::binary);
    if (!file) {
      std::cerr << "error: cannot open " << out_path << " for writing\n";
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;
  for (size_t i = 0; i < workload.frames.size(); ++i) {
    WriteFrame(out, workload.frames[i]);
    if (pace_ms > 0) {
      out.flush();
      PaceAfter(pace_ms);
    }
  }
  out.flush();
  std::cerr << "aqo_loadgen: wrote " << workload.frames.size()
            << " request frames\n";
  return out ? 0 : 1;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
