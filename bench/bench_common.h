#ifndef AQO_BENCH_BENCH_COMMON_H_
#define AQO_BENCH_BENCH_COMMON_H_

// Shared helpers for the experiment harness binaries: a wall-clock timer,
// minimal --flag=value parsing (every bench accepts --quick=1 to run a
// reduced sweep, --seed=<u64>, --threads=<n> to size the worker pool, and
// --json-out=<path> to emit a JSONL run-log, see docs/observability.md),
// the RunLogSession glue that attaches the process-wide run-log from those
// flags, and the SweepRunner that fans a parameter grid across a
// ThreadPool without letting the thread count leak into any output (see
// docs/parallelism.md).

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "qo/registry.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo::bench {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      raw_args_.push_back(arg);
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)].value.assign(1, '1');
      } else {
        values_[arg.substr(2, eq - 2)].value = arg.substr(eq + 1);
      }
    }
  }

  // Flags the binary never read are almost always typos (--qiuck=1).
  // Each Get* marks its flag as recognized; the destructor runs after the
  // bench body finished reading flags, so whatever is left unread gets a
  // stderr warning instead of being silently ignored.
  ~Flags() {
    for (const auto& [name, entry] : values_) {
      if (!entry.accessed) {
        std::cerr << "warning: unrecognized flag --" << name
                  << " (this benchmark never read it; typo?)\n";
      }
    }
  }

  Flags(const Flags&) = delete;
  Flags& operator=(const Flags&) = delete;

  bool Quick() const { return GetInt("quick", 0) != 0; }

  // Worker pool size: --threads=N, defaulting to the hardware parallelism.
  // Results never depend on this value — --threads=1 and --threads=64
  // produce identical tables and identically ordered run-logs.
  int Threads() const {
    int threads =
        static_cast<int>(GetInt("threads", ThreadPool::HardwareConcurrency()));
    return threads < 1 ? 1 : threads;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    const std::string* v = Lookup(name);
    return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& name, double def) const {
    const std::string* v = Lookup(name);
    return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
  }

  std::string GetString(const std::string& name,
                        const std::string& def = "") const {
    const std::string* v = Lookup(name);
    return v == nullptr ? def : *v;
  }

  // Raw argv tail, recorded into run-log headers for provenance.
  const std::vector<std::string>& raw_args() const { return raw_args_; }

 private:
  struct Entry {
    std::string value;
    mutable bool accessed = false;
  };

  const std::string* Lookup(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return nullptr;
    it->second.accessed = true;
    return &it->second.value;
  }

  std::map<std::string, Entry> values_;
  std::vector<std::string> raw_args_;
};

// Attaches the process-wide JSONL run-log when --json-out=<path> is given
// and writes the provenance header record; arms the Chrome trace-event
// recorder when --trace-out=<path> is given (docs/observability.md has
// the loading walkthrough). Construct right after Flags in main() —
// before any ThreadPool, so workers observe an armed recorder — and let
// the destructor close both. Without the flags this is inert and the
// telemetry layer stays disabled (counters only).
//
// --latency-table=1 additionally prints a percentile table of every
// registered histogram to stderr at session end and, when a run-log is
// attached, appends a `histogram_summary` record. Opt-in, so run-log
// bodies stay bit-comparable across runs by default.
class RunLogSession {
 public:
  // `default_seed` is the seed the bench uses when --seed is absent, so
  // the header always records the effective seed.
  RunLogSession(const Flags& flags, const std::string& binary,
                uint64_t default_seed = 0) {
    latency_table_ = flags.GetInt("latency-table", 0) != 0;
    std::string trace_path = flags.GetString("trace-out");
    if (!trace_path.empty()) {
      if (obs::TraceEventRecorder::OpenGlobal(trace_path)) {
        tracing_ = true;
      } else {
        std::cerr << "warning: cannot open --trace-out=" << trace_path
                  << "; tracing disabled\n";
      }
    }
    std::string path = flags.GetString("json-out");
    if (path.empty()) return;
    if (!obs::RunLog::OpenGlobal(path)) {
      std::cerr << "warning: cannot open --json-out=" << path
                << "; run-log disabled\n";
      return;
    }
    attached_ = true;
    obs::RunLog::Global()->WriteHeader(
        binary,
        static_cast<uint64_t>(
            flags.GetInt("seed", static_cast<int64_t>(default_seed))),
        flags.raw_args());
  }

  ~RunLogSession() {
    if (latency_table_) EmitLatencySummary();
    if (tracing_) obs::TraceEventRecorder::CloseGlobal();
    if (attached_) obs::RunLog::CloseGlobal();
  }

  RunLogSession(const RunLogSession&) = delete;
  RunLogSession& operator=(const RunLogSession&) = delete;

  bool attached() const { return attached_; }
  bool tracing() const { return tracing_; }

 private:
  void EmitLatencySummary() {
    obs::HistogramSnapshot snapshot = obs::Registry::Get().Histograms();
    std::cerr << "latency histograms (us):\n";
    for (const auto& [name, data] : snapshot) {
      if (data.count == 0) continue;
      std::cerr << "  " << name << ": count=" << data.count
                << " p50=" << data.Quantile(0.50)
                << " p90=" << data.Quantile(0.90)
                << " p99=" << data.Quantile(0.99)
                << " p999=" << data.Quantile(0.999) << " min=" << data.min
                << " max=" << data.max << "\n";
    }
    if (attached_) {
      obs::JsonValue rec = obs::JsonValue::Object();
      rec["type"] = "histogram_summary";
      rec["histograms"] = obs::HistogramsJson(snapshot);
      obs::RunLog::Global()->Write(rec);
    }
  }

  bool attached_ = false;
  bool tracing_ = false;
  bool latency_table_ = false;
};

// Fans the cells of a seed/parameter grid across a thread pool while
// keeping every observable output a pure function of (base_seed, grid):
//
//   * each cell gets its own Rng stream, Rng(MixSeed(base_seed, index)),
//     so no cell ever consumes another cell's random draws — which thread
//     runs it (and how many threads exist) cannot matter;
//   * run-log records emitted inside a cell are captured in a per-cell
//     RunLogBuffer and replayed to the global log in cell-index order
//     after the sweep, so the JSONL body order is stable across thread
//     counts (records surface at sweep end rather than streaming);
//   * results come back indexed, so tables built from them in a plain
//     loop are byte-identical for every --threads value.
//
// Cells start from the highest index down (ThreadPool::ParallelFor's
// claim order). The grids put their largest instances last, so the
// longest cells start first and no thread picks one up at the end of a
// sweep.
//
// The metamorphic guarantee (threads ∈ {1, 2, 8} agree exactly) is locked
// in by tests/property_test.cc and the qon_gap_threads_differential ctest.
class SweepRunner {
 public:
  SweepRunner(ThreadPool* pool, uint64_t base_seed)
      : pool_(pool), base_seed_(base_seed) {}

  // Runs fn(index, &rng) for every index in [0, count); returns the
  // results in index order. R must be default-constructible.
  template <typename R>
  std::vector<R> Map(size_t count,
                     const std::function<R(size_t, Rng*)>& fn) const {
    std::vector<R> results(count);
    std::vector<std::string> logs(count);
    pool_->ParallelFor(count, [&](size_t index) {
      Rng rng(MixSeed(base_seed_, index));
      obs::RunLogBuffer buffer;
      results[index] = fn(index, &rng);
      logs[index] = buffer.Take();
    });
    if (obs::RunLog* log = obs::RunLog::Global()) {
      for (const std::string& lines : logs) log->WriteRaw(lines);
    }
    return results;
  }

 private:
  ThreadPool* pool_;
  uint64_t base_seed_;
};

// Reads every QO_N knob flag unconditionally, whether or not the selected
// --optimizers= subset uses it. That keeps the unread-flag warning honest:
// deselecting `sa` must not turn a legitimate --sa-iterations= into a
// "typo?" warning.
inline OptimizerOptions ReadQonKnobs(const Flags& flags,
                                     OptimizerOptions defaults = {}) {
  OptimizerOptions o = defaults;
  o.forbid_cartesian =
      flags.GetInt("no-cartesian", o.forbid_cartesian ? 1 : 0) != 0;
  o.samples = static_cast<int>(flags.GetInt("samples", o.samples));
  o.restarts = static_cast<int>(flags.GetInt("restarts", o.restarts));
  o.sa.iterations =
      static_cast<int>(flags.GetInt("sa-iterations", o.sa.iterations));
  o.sa.restarts = static_cast<int>(flags.GetInt("sa-restarts", o.sa.restarts));
  o.ga.population =
      static_cast<int>(flags.GetInt("ga-population", o.ga.population));
  o.ga.generations =
      static_cast<int>(flags.GetInt("ga-generations", o.ga.generations));
  // Anytime knobs (docs/robustness.md): --budget-evals= is the
  // deterministic evaluation cap, --deadline-ms= the wall-clock deadline.
  // Both default to 0 = unlimited, which changes nothing bit-for-bit.
  o.budget.max_evaluations = static_cast<uint64_t>(flags.GetInt(
      "budget-evals", static_cast<int64_t>(o.budget.max_evaluations)));
  o.budget.deadline_ms = flags.GetDouble("deadline-ms", o.budget.deadline_ms);
  return o;
}

// QO_H counterpart of ReadQonKnobs; same always-read-everything policy.
inline QohOptimizerOptions ReadQohKnobs(const Flags& flags,
                                        QohOptimizerOptions defaults = {}) {
  QohOptimizerOptions o = defaults;
  o.samples = static_cast<int>(flags.GetInt("samples", o.samples));
  o.restarts = static_cast<int>(flags.GetInt("restarts", o.restarts));
  o.sentinel_first =
      static_cast<int>(flags.GetInt("sentinel-first", o.sentinel_first));
  o.sa.iterations =
      static_cast<int>(flags.GetInt("sa-iterations", o.sa.iterations));
  o.sa.restarts = static_cast<int>(flags.GetInt("sa-restarts", o.sa.restarts));
  o.budget.max_evaluations = static_cast<uint64_t>(flags.GetInt(
      "budget-evals", static_cast<int64_t>(o.budget.max_evaluations)));
  o.budget.deadline_ms = flags.GetDouble("deadline-ms", o.budget.deadline_ms);
  return o;
}

namespace detail {

template <typename Registry>
std::vector<std::string> SelectedOptimizersOrDie(const Registry& registry,
                                                 const char* family,
                                                 const Flags& flags,
                                                 const std::string& def) {
  std::string csv = flags.GetString("optimizers", def);
  if (csv == "help") {
    // Uniform across every bench and tool: the registry's own Describe()
    // listing (names, descriptions, knob schemas, aliases).
    std::cout << registry.Describe();
    std::exit(0);
  }
  std::vector<std::string> names = ParseOptimizerList(csv);
  bool bad = names.empty();
  for (std::string& name : names) {
    const auto* entry = registry.Find(name);
    if (entry == nullptr) {
      std::cerr << "error: unknown " << family << " optimizer '" << name
                << "' in --optimizers=\n";
      bad = true;
    } else {
      name = entry->name;  // resolve aliases to canonical names
    }
  }
  if (bad) {
    std::cerr << "valid " << family << " optimizers:";
    for (const std::string& name : registry.Names()) std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);  // hard error, never a silent skip
  }
  return names;
}

}  // namespace detail

// Parses --optimizers=<csv> (default `def`) against the QO_N registry.
// Unknown names are a hard error: print the valid list and exit(2).
inline std::vector<std::string> SelectedQonOptimizersOrDie(
    const Flags& flags, const std::string& def) {
  return detail::SelectedOptimizersOrDie(OptimizerRegistry::Qon(), "QO_N",
                                         flags, def);
}

inline std::vector<std::string> SelectedQohOptimizersOrDie(
    const Flags& flags, const std::string& def) {
  return detail::SelectedOptimizersOrDie(QohOptimizerRegistry::Get(), "QO_H",
                                         flags, def);
}

}  // namespace aqo::bench

#endif  // AQO_BENCH_BENCH_COMMON_H_
