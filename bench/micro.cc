// Experiment E11 — micro-benchmarks (google-benchmark) of the primitives
// every other experiment is built on: log-domain arithmetic, cost
// evaluation, the exact solvers, and BigInt. The incremental and
// certified evaluators are timed by tools/bench_snapshot instead
// (BENCH_COST_EVAL.json, BENCH_FAST_EVAL.json).
//
// Unlike the other benches this one delegates timing to google-benchmark,
// so --json-out is honored by a reporter shim that mirrors every finished
// benchmark into the run-log as a `micro_benchmark` record. Our own flags
// (--json-out, --quick, --seed) are stripped before benchmark::Initialize
// sees argv; --benchmark_* flags pass through untouched.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "graph/clique.h"
#include "graph/generators.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "util/bigint.h"
#include "util/log_double.h"
#include "util/random.h"

namespace aqo {
namespace {

void BM_LogDoubleAdd(benchmark::State& state) {
  LogDouble a = LogDouble::FromLog2(1000.5);
  LogDouble b = LogDouble::FromLog2(998.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * LogDouble::FromLog2(-0.001) + b);
  }
}
BENCHMARK(BM_LogDoubleAdd);

QonInstance MakeQonInstance(int n, uint64_t seed) {
  Rng rng(seed);
  Graph g = Gnp(n, 0.5, &rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLinear(static_cast<double>(rng.UniformInt(2, 100000))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v,
                        LogDouble::FromLinear(rng.UniformReal(0.001, 1.0)));
  }
  return inst;
}

void BM_QonSequenceCost(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  QonInstance inst = MakeQonInstance(n, 42);
  JoinSequence seq = IdentitySequence(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QonSequenceCost(inst, seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_QonSequenceCost)->Arg(10)->Arg(30)->Arg(100)->Complexity();

void BM_DpOptimizer(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  QonInstance inst = MakeQonInstance(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DpQonOptimizer(inst));
  }
}
BENCHMARK(BM_DpOptimizer)->Arg(10)->Arg(14)->Arg(18)->Unit(benchmark::kMillisecond);

void BM_GreedyOptimizer(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  QonInstance inst = MakeQonInstance(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyQonOptimizer(inst));
  }
}
BENCHMARK(BM_GreedyOptimizer)->Arg(20)->Arg(60)->Unit(benchmark::kMicrosecond);

void BM_QohDecomposition(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Graph g = Gnp(n, 0.6, &rng);
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(4096.0));
  QohInstance inst(g, std::move(sizes), 8192.0);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
  }
  JoinSequence seq = IdentitySequence(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimalDecomposition(inst, seq));
  }
}
BENCHMARK(BM_QohDecomposition)->Arg(10)->Arg(30)->Unit(benchmark::kMicrosecond);

void BM_MaxClique(benchmark::State& state) {
  Rng rng(11);
  Graph g = Gnp(static_cast<int>(state.range(0)), 0.5, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxClique(g));
  }
}
BENCHMARK(BM_MaxClique)->Arg(30)->Arg(50)->Unit(benchmark::kMicrosecond);

void BM_Dpll(benchmark::State& state) {
  Rng rng(13);
  CnfFormula f = RandomThreeSat(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(0) * 4), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveDpll(f));
  }
}
BENCHMARK(BM_Dpll)->Arg(20)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_BigIntMul(benchmark::State& state) {
  Rng rng(17);
  BigInt a = 1, b = 1;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    a = (a << 61) + BigInt::FromUint64(rng.Next());
    b = (b << 61) + BigInt::FromUint64(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(4)->Arg(16)->Arg(64);

// --- Telemetry-primitive overheads (docs/observability.md) ---
//
// The acceptance bar for the histogram layer: recording a latency sample
// must cost no more than ~2x a bare counter increment, and a disarmed
// trace check must be branch-predictable noise. Compare these three.

void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::Get().GetCounter("micro.bench_counter");
  for (auto _ : state) {
    counter.Increment();
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& histogram =
      obs::Registry::Get().GetHistogram("micro.bench_histogram_us");
  uint64_t value = 0;
  for (auto _ : state) {
    histogram.Record(value);
    value = (value + 37) & 0xffff;  // walk the buckets, stay realistic
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramBucketIndex(benchmark::State& state) {
  uint64_t value = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::Histogram::BucketIndex(value));
    value = value * 2862933555777941757ULL + 3037000493ULL;
  }
}
BENCHMARK(BM_HistogramBucketIndex);

void BM_TraceSpanDisarmed(benchmark::State& state) {
  // No recorder armed: the whole TraceSpan lifetime is one relaxed flag
  // load on each end. This is what every annotated region pays in normal
  // (untraced) runs.
  for (auto _ : state) {
    obs::TraceSpan span("micro.disarmed", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisarmed);

// Console output as usual, plus one JSONL record per finished benchmark
// when a global run-log is attached.
class JsonlReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    obs::RunLog* log = obs::RunLog::Global();
    if (log == nullptr) return;
    for (const Run& run : reports) {
      obs::JsonValue rec = obs::JsonValue::Object();
      rec["type"] = "micro_benchmark";
      rec["benchmark"] = run.benchmark_name();
      rec["error"] = run.error_occurred;
      rec["iterations"] = static_cast<int64_t>(run.iterations);
      rec["real_time"] = run.GetAdjustedRealTime();
      rec["cpu_time"] = run.GetAdjustedCPUTime();
      rec["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
      log->Write(rec);
    }
  }
};

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) {
  aqo::bench::Flags flags(argc, argv);
  aqo::bench::RunLogSession session(flags, "micro");
  // benchmark::Initialize aborts on flags it does not know, so only argv[0]
  // and --benchmark_* survive; everything else belongs to aqo::bench::Flags.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  std::string quick_filter = "--benchmark_filter=BM_(LogDoubleAdd|BigIntMul)";
  bool has_filter = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      bench_argv.push_back(argv[i]);
      if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0)
        has_filter = true;
    }
  }
  if (flags.Quick() && !has_filter)
    bench_argv.push_back(quick_filter.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  aqo::JsonlReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
