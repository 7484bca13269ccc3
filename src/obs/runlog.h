#ifndef AQO_OBS_RUNLOG_H_
#define AQO_OBS_RUNLOG_H_

// JSONL run-log emitter: one structured record per line.
//
// A log starts with a `run_header` record carrying provenance (git sha,
// compiler, build type, seed, hostname, timestamp) and is followed by
// records describing work the process did — most importantly
// `optimizer_run` records, one per optimizer invocation, with the instance
// shape, the result (cost in log2, evaluations), wall time, and the
// counter deltas attributed to the invocation.
//
// The process has at most one *global* log (what --json-out attaches);
// instrumentation points query RunLog::Global() and do nothing when no log
// is attached, so telemetry costs one pointer load when disabled. Tests
// attach a log over a caller-owned ostream instead of a file.
//
// Record schema: see docs/observability.md. The schema-guard test
// (tests/obs_test.cc) re-parses emitted lines and fails if a required key
// disappears — update the doc and the test together with any change.

#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/cancellation.h"

namespace aqo::obs {

inline constexpr int kRunLogSchemaVersion = 3;

class RunLog {
 public:
  // Log writing to a caller-owned stream (kept alive by the caller).
  explicit RunLog(std::ostream* out);
  ~RunLog();

  // The process-wide log, or nullptr when none is attached.
  static RunLog* Global();
  // Attaches a file-backed global log (truncates `path`); false when the
  // file cannot be opened. Replaces any previously attached global log.
  static bool OpenGlobal(const std::string& path);
  // Attaches a global log over a caller-owned stream (tests).
  static void AttachGlobal(std::ostream* out);
  static void CloseGlobal();

  // Serializes `record` as one line and flushes (crash-safe artifacts).
  // While a RunLogBuffer is active on the calling thread the line is
  // captured there instead of reaching the stream.
  void Write(const JsonValue& record);

  // Appends pre-serialized lines (a RunLogBuffer's contents) verbatim.
  void WriteRaw(const std::string& lines);

  // Emits the provenance header. `binary` is the emitting program's name,
  // `args` its raw argv tail.
  void WriteHeader(std::string_view binary, uint64_t seed,
                   const std::vector<std::string>& args);

 private:
  RunLog(std::unique_ptr<std::ofstream> file);

  std::unique_ptr<std::ofstream> file_;  // set when file-backed
  std::ostream* out_;
  std::mutex mu_;
};

// Captures the calling thread's RunLog::Write()s into an in-memory string
// while in scope. This is how parallel sweeps keep run-log record order
// independent of scheduling: each sweep cell runs under its own buffer on
// whatever worker executes it, and the runner replays the buffers in cell
// order with RunLog::WriteRaw afterwards (see bench/bench_common.h).
// Scopes nest per thread (inner captures win); anything not Take()n is
// discarded at scope exit.
class RunLogBuffer {
 public:
  RunLogBuffer();
  ~RunLogBuffer();

  RunLogBuffer(const RunLogBuffer&) = delete;
  RunLogBuffer& operator=(const RunLogBuffer&) = delete;

  // Drains the captured lines (each newline-terminated).
  std::string Take() { return std::move(buffer_); }

 private:
  friend class RunLog;
  static RunLogBuffer* Current();

  std::string buffer_;
  RunLogBuffer* parent_;
};

// Instance shape attached to each optimizer_run record.
struct InstanceShape {
  std::string family;  // "qon" | "qoh"
  std::string kind;    // e.g. "random", "clique_yes", "multipartite_no"
  std::string side;    // "yes" | "no" | "" when not a gap instance
  std::string source;  // source reduction, e.g. "f_N", "f_H", "" when none
  int n = 0;           // relations
  int edges = 0;       // join predicates
};

// One histogram's summary as JSON:
// {"count","sum_us","min_us","max_us","p50_us","p90_us","p99_us","p999_us"}.
JsonValue HistogramJson(const HistogramData& data);

// A (name -> HistogramJson) object for a snapshot, the value of the
// `histogram_summary` record's "histograms" key.
JsonValue HistogramsJson(const HistogramSnapshot& histograms);

// Builds and writes an optimizer_run record to the global log (no-op
// without one). `cost_log2` is ignored when !feasible (serialized null).
// A "status" key is added ONLY when `status` != kComplete, so records of
// complete (unbudgeted) runs are byte-identical to the pre-status schema.
void EmitRunRecord(std::string_view optimizer, const InstanceShape& shape,
                   bool feasible, double cost_log2, uint64_t evaluations,
                   double wall_seconds, const CounterSnapshot& counters,
                   PlanStatus status = PlanStatus::kComplete);

// Runs `fn` (an optimizer invocation returning a result with `feasible`,
// `cost` (LogDouble) and `evaluations` members — OptimizerResult or
// QohOptimizerResult), measuring wall time and counter deltas, and emits
// an optimizer_run record. When no global log is attached this is exactly
// `fn()`: no snapshots, no timing.
//
// Counter deltas are attributed through a per-thread ThreadCounterTally,
// so the record charges exactly the increments this invocation made (plus
// any nested instrumented runs), even when other pool workers increment
// the same counters concurrently.
template <typename Fn>
auto InstrumentedRun(std::string_view optimizer, const InstanceShape& shape,
                     Fn&& fn) {
  if (RunLog::Global() == nullptr) return fn();
  ThreadCounterTally tally;
  auto start = std::chrono::steady_clock::now();
  auto result = fn();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Results that predate PlanStatus (or test fakes) log as complete.
  PlanStatus status = PlanStatus::kComplete;
  if constexpr (requires { result.status; }) status = result.status;
  EmitRunRecord(optimizer, shape, result.feasible,
                result.feasible ? result.cost.Log2() : std::nan(""),
                result.evaluations, wall_seconds, tally.Snapshot(), status);
  return result;
}

}  // namespace aqo::obs

#endif  // AQO_OBS_RUNLOG_H_
