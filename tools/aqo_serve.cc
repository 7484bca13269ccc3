// aqo_serve — long-running optimization server over stdin/stdout.
//
// Speaks a length-prefixed frame protocol (io/framing.h) and answers
// every frame with exactly one response frame. ServeRequest
// (io/serve_request.h, which documents the request and response grammar)
// answers each `req <id> ...` frame through the shared plan cache and the
// load governor. The control verbs `ping <id>`, `health <id>` and
// `snapshot <id>` (forces a snapshot rotation) are answered here, any
// other header with `err ? bad request header: <line>`. `--optimizer=help`
// prints both registries' Describe() listings and exits.
//
// Responses are a pure function of (instance, optimizer, knobs, seed), so
// a warm restart reproduces a cold run's stdout byte-for-byte (the
// warm-start differential ctest and the CI crash-recovery smoke assert
// it); timings and hit counts go to stderr and the JSONL run-log only.
//
// Durability (docs/persistence.md): --cache-dir=<dir> arms plan-cache
// persistence. Startup recovers with PlanStore::LoadAndRecover (torn
// journal tails tolerated), every insert is written through to the
// journal, and a graceful shutdown (stdin EOF, SIGTERM, SIGINT) rotates a
// fresh snapshot; SIGKILL loses nothing but that rotation.
//
// --deadline-ms= (or a request's own number) bounds each optimizer run's
// wall time, so an overloaded item returns its best-so-far plan with
// status deadline_exceeded; such plans are never cached. --budget-evals=
// is the deterministic analogue and IS cacheable (docs/robustness.md).
//
// Telemetry: the qo.serve.request_us histogram (one sample per frame,
// timed from the return of FrameReader::Next, after any resync frame is
// written, through the periodic-snapshot check); ServeRequest records its
// qo.serve.parse_us part and a serve.parse trace slice. The `ping` and
// `health` verbs and the shutdown stderr line report the governor, store
// and cache totals. --json-out/--trace-out/--latency-table come from the
// shared harness flags; with --json-out each computed request also emits
// its `optimizer_run` record.

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "bench/bench_common.h"
#include "io/framing.h"
#include "io/serve_request.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "qo/overload.h"
#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
#include "util/fault_injection.h"

namespace aqo {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::RunLogSession session(flags, "aqo_serve", /*default_seed=*/1);

  // What each family's requests run with, unless a request names its own
  // entry or deadline.
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  BatchOptions qon;
  qon.optimizer = flags.GetString("optimizer", "dp");
  qon.qon = bench::ReadQonKnobs(flags);
  qon.seed = seed;
  BatchOptions qoh;
  qoh.optimizer = flags.GetString("qoh-optimizer", "greedy");
  qoh.qoh = bench::ReadQohKnobs(flags);
  qoh.seed = seed;
  if (qon.optimizer == "help" || qoh.optimizer == "help") {
    std::cout << OptimizerRegistry::Qon().Describe()
              << QohOptimizerRegistry::Get().Describe();
    return 0;
  }
  // Optimize requests between snapshot rotations; 0 = off.
  int64_t snapshot_every = flags.GetInt("snapshot-every", 0);

  // Load governor (qo/overload.h): disarmed unless a capacity is set, in
  // which case shed/degrade decisions are a pure function of the request
  // stream — two runs over the same stream shed the same requests.
  OverloadOptions overload;
  overload.queue_capacity = flags.GetDouble("overload-queue-cap", 0.0);
  overload.cost_capacity = flags.GetDouble("overload-cost-cap", 0.0);
  overload.drain_requests = flags.GetDouble("overload-drain-requests", 1.0);
  overload.drain_cost = flags.GetDouble("overload-drain-cost", 0.0);
  overload.degrade_threshold = flags.GetDouble("overload-degrade", 0.75);
  LoadGovernor governor(overload);

  // --fault=<site>@<ordinal>[x<times>] (or <site>@any) arms the
  // deterministic fault injector for chaos runs (tools/aqo_chaos.cc):
  // e.g. --fault=persist.append@3 tears the 4th journal append exactly as
  // tests/persist_crash_test.cc does in-process.
  std::string fault_spec = flags.GetString("fault");
  if (!fault_spec.empty()) {
    size_t at = fault_spec.find('@');
    if (at == std::string::npos) {
      std::cerr << "error: --fault expects <site>@<ordinal>[x<times>], got '"
                << fault_spec << "'\n";
      return 2;
    }
    std::string site = fault_spec.substr(0, at);
    std::string rest = fault_spec.substr(at + 1);
    int times = 1;
    size_t x = rest.find('x');
    if (x != std::string::npos) {
      times = std::atoi(rest.c_str() + x + 1);
      rest = rest.substr(0, x);
    }
    uint64_t ordinal = rest == "any"
                           ? FaultInjector::kAnyOrdinal
                           : std::strtoull(rest.c_str(), nullptr, 10);
    FaultInjector::Get().Arm(site, ordinal, times);
    std::cerr << "aqo_serve: armed fault " << site << "@" << rest
              << " x" << times << "\n";
  }
  if (OptimizerRegistry::Qon().Find(qon.optimizer) == nullptr) {
    std::cerr << "error: unknown QO_N optimizer '" << qon.optimizer << "'\n";
    return 2;
  }
  if (QohOptimizerRegistry::Get().Find(qoh.optimizer) == nullptr) {
    std::cerr << "error: unknown QO_H optimizer '" << qoh.optimizer << "'\n";
    return 2;
  }

  // The PlanCache constructor CHECK-fails on an empty budget, no shards,
  // or fewer budget bytes than shards; refuse those sizes here instead.
  // The upper bounds keep the MiB shift and the int narrowing exact.
  int64_t cache_mb = flags.GetInt("plan-cache-mb", 64);
  int64_t cache_shards = flags.GetInt("plan-cache-shards", 16);
  constexpr int64_t kMaxCacheMb = int64_t{1} << 40;
  if (cache_mb < 1 || cache_mb > kMaxCacheMb) {
    std::cerr << "error: --plan-cache-mb must be in [1, " << kMaxCacheMb
              << "], got " << cache_mb << "\n";
    return 2;
  }
  int64_t max_shards =
      std::min<int64_t>(cache_mb << 20, std::numeric_limits<int>::max());
  if (cache_shards < 1 || cache_shards > max_shards) {
    std::cerr << "error: --plan-cache-shards must be in [1, " << max_shards
              << "], got " << cache_shards << "\n";
    return 2;
  }
  PlanCacheOptions cache_options;
  cache_options.byte_budget = static_cast<size_t>(cache_mb) << 20;
  cache_options.shards = static_cast<int>(cache_shards);
  PlanCache cache(cache_options);
  cache.LogConfig();
  qon.cache = qoh.cache = &cache;

  // Durable state: recover, then write through.
  std::unique_ptr<PlanStore> store;
  std::string cache_dir = flags.GetString("cache-dir");
  if (!cache_dir.empty()) {
    PersistOptions persist_options;
    persist_options.dir = cache_dir;
    persist_options.fsync = flags.GetInt("fsync", 1) != 0;
    // Circuit breaker (docs/robustness.md): default backoff, counted in
    // refused writes, with jitter seeded from --seed.
    persist_options.breaker.seed = seed;
    store = std::make_unique<PlanStore>(persist_options);
    ParseResult<RecoveryStats> recovered = store->LoadAndRecover(&cache);
    if (!recovered.ok()) {
      std::cerr << "error: " << recovered.error << "\n";
      return 1;
    }
    std::cerr << "aqo_serve: recovered " << recovered.value->entries_loaded
              << " entries (snapshot " << recovered.value->snapshot_entries
              << ", journal " << recovered.value->log_entries << ") in "
              << recovered.value->recover_us << " us";
    if (recovered.value->torn_tail) std::cerr << " [torn journal tail]";
    if (!recovered.value->damage.empty()) {
      std::cerr << " [damage: " << recovered.value->damage << "]";
    }
    std::cerr << "\n";
    store->AttachTo(&cache);
  }

  // SIGTERM/SIGINT end the serve loop for a graceful snapshot; no
  // SA_RESTART, so a blocking stdin read returns early.
  struct sigaction sa = {};
  sa.sa_handler = HandleStop;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  static obs::Histogram& request_us =
      obs::Registry::Get().GetHistogram("qo.serve.request_us");

  uint64_t served = 0;
  int64_t since_snapshot = 0;
  bool clean = true;
  std::string payload;
  std::string frame_error;
  // Corruption in the byte stream must not poison the session: the
  // reader resynchronizes on the next frame whose payload starts with a
  // known protocol verb, and the skipped garbage is answered with one
  // `err ?` frame so the client knows bytes were dropped.
  FrameReader frames(std::cin, StartsWithServeVerb);
  while (g_stop == 0) {
    FrameRead read = frames.Next(&payload, &frame_error);
    if (read == FrameRead::kEof) break;
    if (read == FrameRead::kError) {
      if (g_stop != 0) break;  // interrupted mid-read by a stop signal
      std::cerr << "error: <stdin>: " << frame_error << "\n";
      clean = false;
      break;
    }
    if (frames.resynced()) {
      std::ostringstream garbage;
      garbage << "err ? parse: resynchronized after "
              << frames.last_skipped() << " bytes of frame garbage";
      WriteFrame(std::cout, garbage.str());
      std::cout.flush();
    }
    obs::ScopedLatencyTimer timer(request_us);
    ServeFrame frame = SplitServeFrame(payload);
    std::string_view verb = frame.verb;
    std::string_view id = frame.id;
    std::string response;
    if (verb == "req" && !id.empty()) {
      response = ServeRequest(frame, qon, qoh, &governor);
      ++served;
      ++since_snapshot;
    } else if (verb == "ping" && !id.empty()) {
      // Extended health ping: everything here is a deterministic
      // function of the request stream (+ fault schedule), so pinged
      // runs still diff byte-identically.
      governor.OnControlFrame();
      std::ostringstream pong;
      pong << "ok " << id << " pong pressure="
           << governor.PressurePermille() << " sheds=" << governor.sheds()
           << " degrades=" << governor.degrades() << " persist="
           << (store != nullptr ? PersistHealthName(store->health())
                                : "none");
      response = pong.str();
    } else if (verb == "health" && !id.empty()) {
      governor.OnControlFrame();
      PlanCache::Stats stats = cache.GetStats();
      std::ostringstream health;
      health << "ok " << id << " health\n"
             << "governor armed=" << (governor.armed() ? 1 : 0)
             << " pressure=" << governor.PressurePermille()
             << " admits=" << governor.admits()
             << " degrades=" << governor.degrades()
             << " sheds=" << governor.sheds() << "\n"
             << "persist ";
      if (store != nullptr) {
        health << PersistHealthName(store->health())
               << " trips=" << store->breaker_trips()
               << " probes=" << store->breaker_probes()
               << " reopens=" << store->breaker_reopens();
      } else {
        health << "none";
      }
      health << "\ncache entries=" << stats.entries
             << " bytes=" << stats.bytes << " hits=" << stats.hits
             << " misses=" << stats.misses;
      response = health.str();
    } else if (verb == "snapshot" && !id.empty()) {
      governor.OnControlFrame();
      std::ostringstream snapshot;
      if (store == nullptr) {
        snapshot << "err " << id << " snapshot: no --cache-dir configured";
      } else if (store->SaveSnapshot(cache)) {
        snapshot << "ok " << id << " snapshot";
      } else {
        snapshot << "err " << id << " snapshot: " << store->error();
      }
      response = snapshot.str();
    } else {
      response = "err ? bad request header: " + std::string(frame.line);
    }
    WriteFrame(std::cout, response);
    std::cout.flush();
    if (store != nullptr && snapshot_every > 0 &&
        since_snapshot >= snapshot_every) {
      if (store->SaveSnapshot(cache)) since_snapshot = 0;
    }
  }

  // Graceful shutdown: rotate a snapshot so the next start recovers from
  // one file instead of replaying the whole journal.
  if (store != nullptr) {
    if (!store->SaveSnapshot(cache)) {
      std::cerr << "warning: shutdown snapshot failed: " << store->error()
                << "\n";
    }
  }
  if (governor.armed()) {
    if (obs::RunLog* log = obs::RunLog::Global()) {
      obs::JsonValue record = obs::JsonValue::Object();
      record["type"] = "overload_summary";
      record["admits"] = governor.admits();
      record["degrades"] = governor.degrades();
      record["sheds"] = governor.sheds();
      record["final_pressure_permille"] = governor.PressurePermille();
      log->Write(record);
    }
    std::cerr << "aqo_serve: governor admits=" << governor.admits()
              << " degrades=" << governor.degrades()
              << " sheds=" << governor.sheds() << "\n";
  }
  cache.LogStats();
  PlanCache::Stats stats = cache.GetStats();
  std::cerr << "aqo_serve: served " << served << " requests"
            << (g_stop != 0 ? " (stopped by signal)" : "") << "; cache hits="
            << stats.hits << " misses=" << stats.misses
            << " entries=" << stats.entries << " bytes=" << stats.bytes
            << "\n";
  return clean ? 0 : 1;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
