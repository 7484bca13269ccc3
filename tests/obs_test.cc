// Tests for the telemetry subsystem (src/obs): the counter registry and
// its per-thread tallies, the trace slices, the JSON model, and — most
// importantly — the JSONL run-log schema guard: every record the
// instrumentation emits must re-parse and carry the keys
// docs/observability.md promises. If a key here goes missing, downstream
// tooling reading run-logs breaks; update the doc together with this
// test.

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "io/serialization.h"
#include "io/serve_request.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/plan_cache.h"
#include "qo/qon.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/pipeline.h"
#include "sat/cnf.h"
#include "tests/json_reader.h"
#include "util/log_double.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

// --- Counter registry ------------------------------------------------------

TEST(Metrics, CounterFindOrCreateReturnsStableRef) {
  obs::Counter& a = obs::Registry::Get().GetCounter("test.obs.stable");
  obs::Counter& b = obs::Registry::Get().GetCounter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  uint64_t before = b.Value();
  a.Increment();
  a.Add(41);
  EXPECT_EQ(b.Value() - before, 42u);
}

// --- JSON model ------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  obs::JsonValue rec = obs::JsonValue::Object();
  rec["name"] = "qon.dp";
  rec["n"] = 42;
  rec["big"] = uint64_t{18446744073709551615ull};
  rec["ratio"] = 0.1;
  rec["ok"] = true;
  rec["missing"] = obs::JsonValue();
  obs::JsonValue arr = obs::JsonValue::Array();
  arr.Push(1);
  arr.Push("two\n\"quoted\"");
  rec["items"] = arr;

  std::string line = rec.Dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // JSONL-safe
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("name")->AsString(), "qon.dp");
  EXPECT_EQ(parsed->Find("n")->AsInt(), 42);
  EXPECT_EQ(parsed->Find("big")->AsUint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed->Find("ratio")->AsDouble(), 0.1);
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_TRUE(parsed->Find("missing")->is_null());
  ASSERT_EQ(parsed->Find("items")->size(), 2u);
  EXPECT_EQ(parsed->Find("items")->items()[1].AsString(), "two\n\"quoted\"");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").has_value());
  EXPECT_FALSE(ParseJson("{}trailing").has_value());
  EXPECT_FALSE(ParseJson("{'single':1}").has_value());
  EXPECT_FALSE(ParseJson("[1,]").has_value());
  EXPECT_TRUE(ParseJson(" {\"a\": [1, 2]} ").has_value());
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  obs::JsonValue rec = obs::JsonValue::Object();
  rec["nan"] = std::nan("");
  EXPECT_EQ(rec.Dump(), "{\"nan\":null}");
}

// --- Run-log schema guard --------------------------------------------------

QonInstance SmallInstance() {
  Graph g = Graph::Complete(5);
  std::vector<LogDouble> sizes(5, LogDouble::FromLinear(1000.0));
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
  }
  return inst;
}

std::vector<obs::JsonValue> EmitAndParse() {
  std::ostringstream sink;
  obs::RunLog::AttachGlobal(&sink);
  obs::RunLog::Global()->WriteHeader("obs_test", 123, {"--quick=1"});
  QonInstance inst = SmallInstance();
  obs::InstanceShape shape{.family = "qon",
                           .kind = "complete",
                           .side = "",
                           .source = "",
                           .n = inst.NumRelations(),
                           .edges = inst.graph().NumEdges()};
  OptimizerResult result = obs::InstrumentedRun("qon.dp", shape, [&] {
    return OptimizerRegistry::Qon().Run("dp", inst, {}, nullptr);
  });
  obs::RunLog::CloseGlobal();
  EXPECT_TRUE(result.feasible);

  std::vector<obs::JsonValue> records;
  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.has_value()) << "unparseable JSONL line: " << line;
    if (parsed.has_value()) records.push_back(std::move(*parsed));
  }
  return records;
}

TEST(RunLog, HeaderCarriesProvenance) {
  std::vector<obs::JsonValue> records = EmitAndParse();
  ASSERT_GE(records.size(), 1u);
  const obs::JsonValue& header = records[0];
  EXPECT_EQ(header.Find("type")->AsString(), "run_header");
  EXPECT_EQ(header.Find("schema_version")->AsInt(), obs::kRunLogSchemaVersion);
  EXPECT_EQ(header.Find("binary")->AsString(), "obs_test");
  EXPECT_EQ(header.Find("seed")->AsUint(), 123u);
  ASSERT_TRUE(header.Has("args"));
  ASSERT_EQ(header.Find("args")->size(), 1u);
  const obs::JsonValue* prov = header.Find("provenance");
  ASSERT_NE(prov, nullptr);
  for (const char* key :
       {"git_sha", "compiler", "build_type", "hostname", "timestamp_utc"}) {
    ASSERT_TRUE(prov->Has(key)) << "provenance missing " << key;
    EXPECT_FALSE(prov->Find(key)->AsString().empty()) << key;
  }
}

// The contract from ISSUE/docs: every optimizer invocation can emit a
// record with the optimizer name, instance size, cost (log2), evaluation
// count, wall time, and at least two optimizer-specific counters.
TEST(RunLog, OptimizerRunRecordSchema) {
  std::vector<obs::JsonValue> records = EmitAndParse();
  ASSERT_GE(records.size(), 2u);
  const obs::JsonValue& run = records[1];
  EXPECT_EQ(run.Find("type")->AsString(), "optimizer_run");
  EXPECT_EQ(run.Find("optimizer")->AsString(), "qon.dp");

  const obs::JsonValue* inst = run.Find("instance");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->Find("family")->AsString(), "qon");
  EXPECT_EQ(inst->Find("n")->AsInt(), 5);
  EXPECT_EQ(inst->Find("edges")->AsInt(), 10);
  EXPECT_TRUE(inst->Has("kind"));
  EXPECT_TRUE(inst->Has("side"));
  EXPECT_TRUE(inst->Has("source"));

  EXPECT_TRUE(run.Find("feasible")->AsBool());
  ASSERT_TRUE(run.Has("cost_log2"));
  EXPECT_TRUE(run.Find("cost_log2")->is_number());
  EXPECT_GT(run.Find("cost_log2")->AsDouble(), 0.0);
  EXPECT_GT(run.Find("evaluations")->AsUint(), 0u);
  EXPECT_GE(run.Find("wall_seconds")->AsDouble(), 0.0);

  // >= 2 optimizer-specific counters attributed to this invocation.
  const obs::JsonValue* counters = run.Find("counters");
  ASSERT_NE(counters, nullptr);
  int optimizer_specific = 0;
  for (const auto& [name, value] : counters->members()) {
    if (name.rfind("qon.dp.", 0) == 0) {
      ++optimizer_specific;
      EXPECT_GT(value.AsUint(), 0u) << name;
    }
  }
  EXPECT_GE(optimizer_specific, 2) << "DP run must attribute its own "
                                      "counters (qon.dp.*) to the record";

  // Schema 3 has neither a "spans" nor a "histograms" key: latency
  // distributions live in the global histograms (histogram_summary).
  EXPECT_FALSE(run.Has("spans"));
  EXPECT_FALSE(run.Has("histograms"));
  EXPECT_EQ(records[0].Find("schema_version")->AsInt(), 3);
}

TEST(RunLog, InfeasibleRunSerializesNullCost) {
  std::ostringstream sink;
  obs::RunLog::AttachGlobal(&sink);
  obs::InstanceShape shape{.family = "qon", .kind = "t", .side = "",
                           .source = "", .n = 1, .edges = 0};
  struct FakeResult {
    bool feasible = false;
    LogDouble cost;
    uint64_t evaluations = 0;
  };
  obs::InstrumentedRun("qon.fake", shape, [] { return FakeResult{}; });
  obs::RunLog::CloseGlobal();
  auto parsed = ParseJson(sink.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->Find("feasible")->AsBool());
  EXPECT_TRUE(parsed->Find("cost_log2")->is_null());
}

TEST(RunLog, InstrumentedRunIsPassthroughWithoutGlobalLog) {
  ASSERT_EQ(obs::RunLog::Global(), nullptr);
  QonInstance inst = SmallInstance();
  obs::InstanceShape shape{.family = "qon", .kind = "complete", .side = "",
                           .source = "", .n = 5, .edges = 10};
  OptimizerResult direct = GreedyQonOptimizer(inst);
  OptimizerResult wrapped = obs::InstrumentedRun(
      "qon.greedy", shape, [&] { return GreedyQonOptimizer(inst); });
  EXPECT_EQ(wrapped.feasible, direct.feasible);
  EXPECT_DOUBLE_EQ(wrapped.cost.Log2(), direct.cost.Log2());
}

// --- Per-thread counter attribution ----------------------------------------

TEST(ThreadCounterTally, AttributesOnlyTheCallingThreadsIncrements) {
  obs::Counter& counter =
      obs::Registry::Get().GetCounter("test.tally.concurrent");
  uint64_t before = counter.Value();
  // Three other threads hammer the same global counter while this
  // thread's tally is open; the tally must see exactly this thread's
  // increments, and the global counter all of them.
  obs::ThreadCounterTally tally;
  std::vector<std::thread> others;
  for (int t = 0; t < 3; ++t) {
    others.emplace_back([&counter] {
      for (int i = 0; i < 100; ++i) counter.Increment();
    });
  }
  for (int i = 0; i < 100; ++i) counter.Increment();
  for (std::thread& t : others) t.join();
  auto snapshot = tally.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "test.tally.concurrent");
  EXPECT_EQ(snapshot[0].second, 100u);
  EXPECT_EQ(counter.Value() - before, 400u);
}

TEST(ThreadCounterTally, NestedTallyFoldsIntoParent) {
  obs::Counter& counter = obs::Registry::Get().GetCounter("test.tally.nested");
  obs::ThreadCounterTally outer;
  counter.Add(3);
  {
    obs::ThreadCounterTally inner;
    counter.Add(7);
    auto inner_snapshot = inner.Snapshot();
    ASSERT_EQ(inner_snapshot.size(), 1u);
    EXPECT_EQ(inner_snapshot[0].second, 7u);
  }
  auto outer_snapshot = outer.Snapshot();
  ASSERT_EQ(outer_snapshot.size(), 1u);
  EXPECT_EQ(outer_snapshot[0].second, 10u);  // own 3 + folded inner 7
}

TEST(ThreadCounterTally, SnapshotIsNameSorted) {
  obs::Counter& y = obs::Registry::Get().GetCounter("test.tally.sorted.y");
  obs::Counter& x = obs::Registry::Get().GetCounter("test.tally.sorted.x");
  obs::ThreadCounterTally tally;
  y.Add(9);
  x.Add(7);
  // Snapshots come back sorted by name: a stable record layout.
  EXPECT_EQ(tally.Snapshot(),
            (obs::CounterSnapshot{{"test.tally.sorted.x", 7},
                                  {"test.tally.sorted.y", 9}}));
}

// The `counters` of the one optimizer_run record in `jsonl`.
obs::CounterSnapshot RunRecordCounters(const std::string& jsonl) {
  obs::CounterSnapshot counters;
  int runs = 0;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.has_value()) << "unparseable JSONL line: " << line;
    if (!parsed.has_value() ||
        parsed->Find("type")->AsString() != "optimizer_run") {
      continue;
    }
    ++runs;
    for (const auto& [name, value] : parsed->Find("counters")->members()) {
      counters.emplace_back(name, value.AsUint());
    }
  }
  EXPECT_EQ(runs, 1);
  return counters;
}

// A counter leaves the process only in an optimizer_run record, so no
// counter may move outside a run: a one-instance batch that misses its
// cache tallies exactly the counters of the record it emits, and the same
// batch again, now a hit, tallies nothing and emits no record.
template <typename Instance, typename Item>
void ExpectBatchCountsOnlyItsRun(
    std::vector<Item> (*optimize)(const std::vector<Instance>&,
                                  const BatchOptions&),
    const Instance& inst, const std::string& optimizer) {
  PlanCache cache;
  BatchOptions options;
  options.optimizer = optimizer;
  options.cache = &cache;
  const std::vector<Instance> batch = {inst};

  std::ostringstream sink;
  obs::RunLog::AttachGlobal(&sink);
  obs::CounterSnapshot miss;
  obs::CounterSnapshot hit;
  bool miss_from_cache = true;
  bool hit_from_cache = false;
  {
    obs::ThreadCounterTally tally;
    miss_from_cache = optimize(batch, options).front().from_cache;
    miss = tally.Snapshot();
  }
  const std::string miss_log = sink.str();
  {
    obs::ThreadCounterTally tally;
    hit_from_cache = optimize(batch, options).front().from_cache;
    hit = tally.Snapshot();
  }
  obs::RunLog::CloseGlobal();

  EXPECT_FALSE(miss_from_cache);
  EXPECT_FALSE(miss.empty());
  EXPECT_EQ(miss, RunRecordCounters(miss_log));
  EXPECT_TRUE(hit_from_cache);
  EXPECT_EQ(hit, obs::CounterSnapshot{});
  EXPECT_EQ(sink.str(), miss_log);
}

TEST(ThreadCounterTally, QonBatchCountsOnlyItsRun) {
  ExpectBatchCountsOnlyItsRun(&OptimizeQonBatch, SmallInstance(), "dp");
}

TEST(ThreadCounterTally, QohBatchCountsOnlyItsRun) {
  Rng rng(17);
  ExpectBatchCountsOnlyItsRun(&OptimizeQohBatch,
                              RandomQohWorkload(6, &rng), "ii");
}

// --- Run-log buffering for sweep-order stability ----------------------------

TEST(RunLogBuffer, CapturesAndReplaysInCallerChosenOrder) {
  std::ostringstream sink;
  obs::RunLog::AttachGlobal(&sink);
  obs::RunLog* log = obs::RunLog::Global();
  ASSERT_NE(log, nullptr);

  auto record = [](int cell) {
    obs::JsonValue v = obs::JsonValue::Object();
    v["cell"] = cell;
    return v;
  };

  // Capture two cells out of order, replay them in cell order — the
  // SweepRunner pattern.
  std::string cell1;
  {
    obs::RunLogBuffer buffer;
    log->Write(record(1));
    cell1 = buffer.Take();
  }
  std::string cell0;
  {
    obs::RunLogBuffer buffer;
    log->Write(record(0));
    cell0 = buffer.Take();
  }
  EXPECT_EQ(sink.str(), "");  // nothing reached the stream yet
  log->WriteRaw(cell0);
  log->WriteRaw(cell1);
  obs::RunLog::CloseGlobal();

  EXPECT_EQ(sink.str(), "{\"cell\":0}\n{\"cell\":1}\n");
}

TEST(RunLogBuffer, UntakenLinesAreDiscardedAtScopeExit) {
  std::ostringstream sink;
  obs::RunLog::AttachGlobal(&sink);
  {
    obs::RunLogBuffer buffer;
    obs::RunLog::Global()->Write(obs::JsonValue::Object());
  }
  obs::RunLog::CloseGlobal();
  EXPECT_EQ(sink.str(), "");
}

// --- Latency histograms -----------------------------------------------------

TEST(Histogram, BucketBoundsRoundTrip) {
  // Every value must land in a bucket whose [lower, upper] range contains
  // it, bucket indexes must be monotone in the value, and the top of the
  // u64 range must still fit.
  std::vector<uint64_t> probes = {0,     1,     15,    16,
                                  17,    31,    32,    33,
                                  255,   256,   1000,  65535,
                                  65536, uint64_t{1} << 30,
                                  uint64_t{1} << 62, ~uint64_t{0}};
  uint32_t prev_index = 0;
  for (uint64_t v : probes) {
    uint32_t index = obs::Histogram::BucketIndex(v);
    ASSERT_LT(index, obs::Histogram::kNumBuckets) << v;
    EXPECT_LE(obs::Histogram::BucketLowerBound(index), v) << v;
    EXPECT_GE(obs::Histogram::BucketUpperBound(index), v) << v;
    EXPECT_GE(index, prev_index) << v;  // probes ascend, so must indexes
    prev_index = index;
  }
  // Values below kSubBuckets are exact: one value per bucket.
  for (uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    uint32_t index = obs::Histogram::BucketIndex(v);
    EXPECT_EQ(obs::Histogram::BucketLowerBound(index), v);
    EXPECT_EQ(obs::Histogram::BucketUpperBound(index), v);
  }
}

TEST(Histogram, BucketRelativeErrorIsBounded) {
  // Bucket width <= lower_bound / kSubBuckets: the documented <= 6.25%
  // relative error with 16 sub-buckets.
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Next() >> (rng.Next() % 50);
    if (v < obs::Histogram::kSubBuckets) continue;
    uint32_t index = obs::Histogram::BucketIndex(v);
    uint64_t lo = obs::Histogram::BucketLowerBound(index);
    uint64_t hi = obs::Histogram::BucketUpperBound(index);
    EXPECT_LE(hi - lo + 1, lo / obs::Histogram::kSubBuckets + 1) << v;
  }
}

TEST(Histogram, SnapshotTotalsAndExtrema) {
  obs::Histogram& h = obs::Registry::Get().GetHistogram("test.hist.totals_us");
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
  for (uint64_t v : {7u, 100u, 100u, 5000u}) h.Record(v);
  obs::HistogramData data = h.Snapshot();
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.sum, 5207u);
  EXPECT_EQ(data.min, 7u);
  EXPECT_EQ(data.max, 5000u);
  // Sparse buckets are index-sorted with counts matching the totals.
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < data.buckets.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(data.buckets[i - 1].first, data.buckets[i].first);
    }
    bucket_total += data.buckets[i].second;
  }
  EXPECT_EQ(bucket_total, 4u);
  h.Reset();
}

TEST(Histogram, QuantilesTrackExactPercentiles) {
  // The histogram quantile must stay within one bucket's relative error
  // of SampleSet's exact order statistics over a skewed random stream.
  obs::Histogram& h =
      obs::Registry::Get().GetHistogram("test.hist.quantiles_us");
  h.Reset();
  SampleSet exact;
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish latencies from sub-us to ~1s.
    uint64_t v = rng.Next() % (uint64_t{1} << (4 + rng.Next() % 16));
    h.Record(v);
    exact.Add(static_cast<double>(v));
  }
  obs::HistogramData data = h.Snapshot();
  ASSERT_EQ(data.count, 20000u);
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    double approx = static_cast<double>(data.Quantile(q));
    double truth = exact.Percentile(q * 100.0);
    // Upper bucket bound: never below the true order statistic by more
    // than interpolation slack, never above it by more than one bucket
    // width (1/16 relative).
    EXPECT_GE(approx, truth * (1.0 - 1.0 / 16.0) - 1.0) << q;
    EXPECT_LE(approx, truth * (1.0 + 1.0 / 16.0) + 1.0) << q;
  }
  EXPECT_EQ(data.Quantile(0.0), data.min);
  EXPECT_EQ(data.Quantile(1.0), data.max);
  h.Reset();
}

TEST(Histogram, SnapshotIsIdenticalAcrossThreadCounts) {
  // The recorded distribution is a pure function of the value stream:
  // fanning the same 4000 records across 1, 2 or 4 workers must yield
  // bit-identical snapshots (relaxed increments commute).
  obs::HistogramData reference;
  for (int threads : {1, 2, 4}) {
    obs::Histogram& h =
        obs::Registry::Get().GetHistogram("test.hist.threads_us");
    h.Reset();
    ThreadPool pool(threads);
    pool.ParallelFor(4000, [&](size_t i) {
      h.Record((i * 2654435761u) % 1000000);
    });
    obs::HistogramData data = h.Snapshot();
    if (threads == 1) {
      reference = data;
    } else {
      EXPECT_EQ(data, reference) << "threads=" << threads;
    }
  }
  obs::Registry::Get().GetHistogram("test.hist.threads_us").Reset();
}

TEST(Histogram, RegistrySnapshotIsNameSortedAndStable) {
  obs::Histogram& h1 = obs::Registry::Get().GetHistogram("test.hist.reg_a");
  obs::Histogram& h2 = obs::Registry::Get().GetHistogram("test.hist.reg_a");
  EXPECT_EQ(&h1, &h2);  // find-or-create returns stable refs
  obs::HistogramSnapshot snap = obs::Registry::Get().Histograms();
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
}

// --- Trace-event export -----------------------------------------------------

// Parses a recorder's output and returns the traceEvents array.
std::vector<obs::JsonValue> TraceEventsOf(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.has_value()) << "trace output is not valid JSON";
  std::vector<obs::JsonValue> events;
  if (!parsed.has_value()) return events;
  const obs::JsonValue* list = parsed->Find("traceEvents");
  EXPECT_NE(list, nullptr);
  if (list != nullptr) {
    for (const obs::JsonValue& e : list->items()) events.push_back(e);
  }
  return events;
}

TEST(Trace, DisarmedSpansEmitNothing) {
  ASSERT_FALSE(obs::TraceEventRecorder::Armed());
  {
    obs::TraceSpan slice("test.trace.unarmed");
    slice.Annotate("ignored", true);
  }
  // Arming afterwards must not surface the events recorded above.
  std::ostringstream sink;
  obs::TraceEventRecorder::AttachGlobal(&sink);
  obs::TraceEventRecorder::CloseGlobal();
  EXPECT_TRUE(TraceEventsOf(sink.str()).empty());
}

TEST(Trace, SpansAndSlicesBecomeCompleteEvents) {
  // u* = 1: x1, x2, and not both.
  CnfFormula formula(2);
  formula.AddClause({1});
  formula.AddClause({2});
  formula.AddClause({-1, -2});

  std::ostringstream sink;
  obs::TraceEventRecorder::AttachGlobal(&sink);
  ASSERT_TRUE(obs::TraceEventRecorder::Armed());
  ComposeSatToQon(formula, SatToQonOptions{});
  {
    obs::TraceSpan slice("test.trace.slice", "testing");
    slice.Annotate("cache_hit", true);
    slice.Annotate("fingerprint", std::string_view("deadbeef"));
    slice.Annotate("items", uint64_t{3});
  }
  obs::TraceEventRecorder::CloseGlobal();
  ASSERT_FALSE(obs::TraceEventRecorder::Armed());

  std::vector<obs::JsonValue> events = TraceEventsOf(sink.str());
  ASSERT_EQ(events.size(), 6u);
  for (const obs::JsonValue& e : events) {
    EXPECT_EQ(e.Find("ph")->AsString(), "X");  // complete events only
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
  }
  // Sorted by start time: the composition's slice encloses its four
  // stages, which run one after another. Times are compared in integer
  // nanoseconds (the recorder prints microseconds with three decimals).
  const char* kReductionSlices[] = {
      "compose.sat_to_qon", "compose.solve_sat", "compose.maxsat",
      "reduce.sat_to_clique", "reduce.clique_to_qon"};
  auto ns = [](const obs::JsonValue& e, const char* key) {
    return std::llround(e.Find(key)->AsDouble() * 1000.0);
  };
  auto start = [&](const obs::JsonValue& e) { return ns(e, "ts"); };
  auto end = [&](const obs::JsonValue& e) { return start(e) + ns(e, "dur"); };
  for (size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(kReductionSlices[i]);
    EXPECT_EQ(events[i].Find("name")->AsString(), kReductionSlices[i]);
    EXPECT_EQ(events[i].Find("cat")->AsString(), "span");
    if (i == 0) continue;
    EXPECT_GE(start(events[i]), start(events[0]));
    EXPECT_LE(end(events[i]), end(events[0]));
    if (i > 1) {
      EXPECT_GE(start(events[i]), end(events[i - 1]));
    }
  }
  const obs::JsonValue& slice = events[5];
  EXPECT_GE(start(slice), end(events[0]));
  EXPECT_EQ(slice.Find("name")->AsString(), "test.trace.slice");
  EXPECT_EQ(slice.Find("cat")->AsString(), "testing");
  const obs::JsonValue* args = slice.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_TRUE(args->Find("cache_hit")->AsBool());
  EXPECT_EQ(args->Find("fingerprint")->AsString(), "deadbeef");
  EXPECT_EQ(args->Find("items")->AsUint(), 3u);
}

TEST(Trace, ServiceEmitsOneItemSlicePerBatchItem) {
  // The acceptance contract: with tracing armed, a batch of N instances
  // yields exactly N "qo.service.item" slices, computed misses and cache
  // hits alike.
  QonInstance base = SmallInstance();
  std::vector<QonInstance> batch = {base, base, base, base, base};
  PlanCacheOptions cache_options;
  PlanCache cache(cache_options);
  BatchOptions options;
  options.optimizer = "greedy";
  options.cache = &cache;

  std::ostringstream sink;
  obs::TraceEventRecorder::AttachGlobal(&sink);
  std::vector<QonBatchItem> items = OptimizeQonBatch(batch, options);
  obs::TraceEventRecorder::CloseGlobal();
  ASSERT_EQ(items.size(), batch.size());

  size_t item_slices = 0;
  bool saw_computed = false, saw_served = false;
  for (const obs::JsonValue& e : TraceEventsOf(sink.str())) {
    if (e.Find("name")->AsString() != "qo.service.item") continue;
    ++item_slices;
    const obs::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Find("fingerprint")->AsString().size(), 32u);
    EXPECT_TRUE(args->Has("status"));
    (args->Find("cache_hit")->AsBool() ? saw_served : saw_computed) = true;
  }
  EXPECT_EQ(item_slices, batch.size());
  EXPECT_TRUE(saw_computed);  // first occurrence computed
  EXPECT_TRUE(saw_served);    // the four duplicates served from the cache
}

TEST(Trace, AServedHitBuildsNoInstance) {
  // A served request reads its body into the flat form; the canonical
  // instance, built under a "qo.service.canonical" slice, is the only
  // instance it builds, and only on a miss. A hit, the same body or a
  // relabeled one, has its parse and item slices and no build, and
  // answers the miss's bytes (the sequence mapped for the relabeling).
  Rng rng(5);
  QonInstance qon_inst = SmallInstance();
  QohInstance qoh_inst = RandomQohWorkload(6, &rng);
  std::ostringstream qoh_text;
  WriteQohInstance(qoh_inst, qoh_text);
  std::ostringstream relabeled_qoh_text;
  WriteQohInstance(PermuteQohInstance(qoh_inst, {5, 4, 3, 2, 1, 0}),
                   relabeled_qoh_text);
  PlanCache cache(PlanCacheOptions{});
  BatchOptions qon;
  qon.optimizer = "greedy";
  qon.cache = &cache;
  BatchOptions qoh = qon;
  LoadGovernor governor;
  // The response after its id, and the slice count per name.
  auto serve = [&](const std::string& body, std::string* answer) {
    std::ostringstream sink;
    obs::TraceEventRecorder::AttachGlobal(&sink);
    std::string response =
        ServeRequest(SplitServeFrame("req 7\n" + body), qon, qoh, &governor);
    obs::TraceEventRecorder::CloseGlobal();
    EXPECT_TRUE(response.starts_with("ok 7 ")) << response;
    *answer = response.substr(5);
    std::map<std::string, int> slices;
    for (const obs::JsonValue& e : TraceEventsOf(sink.str())) {
      ++slices[e.Find("name")->AsString()];
    }
    EXPECT_EQ(slices["serve.parse"], 1);
    EXPECT_EQ(slices["qo.service.item"], 1);
    return slices["qo.service.canonical"];
  };
  for (const std::string& body : {QonToString(qon_inst), qoh_text.str()}) {
    SCOPED_TRACE(body.substr(0, 6));
    std::string miss, hit;
    EXPECT_EQ(serve(body, &miss), 1);
    EXPECT_EQ(serve(body, &hit), 0);
    EXPECT_EQ(hit, miss);
  }
  std::string relabeled;
  EXPECT_EQ(serve(relabeled_qoh_text.str(), &relabeled), 0);
  EXPECT_EQ(relabeled.substr(0, relabeled.find('\n')),
            [&] {
              std::string miss;
              serve(qoh_text.str(), &miss);
              return miss.substr(0, miss.find('\n'));
            }());
}

}  // namespace
}  // namespace aqo
