// aqo_serve — long-running optimization server over stdin/stdout.
//
// Speaks a length-prefixed frame protocol (io/framing.h): each request
// frame carries a small text payload —
//
//   req <id> [deadline_ms] [optimizer=<name>]
//   qon <n>            (or qoh — the full instance text, io/serialization.h)
//   ...
//
// The optional `optimizer=` token selects any registry entry (family-
// checked, aliases resolved) for that one request; `--optimizer=help`
// prints both registries' Describe() listings and exits. A number that
// strtod reads whole is that request's deadline in ms, in place of
// --deadline-ms=; any other header token is answered `err <id> header:`.
//
// and produces exactly one response frame per request:
//
//   ok <id> <family> feasible=<0|1> status=<status> cost_log2=<g17> evaluations=<n>
//   seq <v...>                       (feasible only)
//   pipelines <v...>                 (qoh, feasible only)
//
// or `err <id> <reason>` (header and parse failures, admission
// rejections). Control frames: `ping <id>` and `snapshot <id>` (forces a
// snapshot rotation).
//
// Responses are a pure function of (instance, optimizer, knobs, seed):
// cache hits return bit-identical bytes to a fresh computation, so a
// warm restart reproduces a cold run's stdout byte-for-byte — the
// warm-start differential ctest and the CI crash-recovery smoke both
// assert exactly that. Anything nondeterministic (timings, hit counts)
// goes to stderr and the JSONL run-log only.
//
// Durability (docs/persistence.md): --cache-dir=<dir> arms plan-cache
// persistence. On startup the cache is warmed with
// PlanStore::LoadAndRecover (tolerating torn journal tails from a crash);
// every insert is written through to the journal; a graceful shutdown
// (stdin EOF, SIGTERM, SIGINT) rotates a fresh snapshot. SIGKILL loses
// nothing but the snapshot rotation — the journal already holds every
// insert.
//
// Admission control (qo/overload.h Admit) answers a request its entry's
// domain excludes with `err <id> domain: ...` before any work, then lets
// the optional load governor degrade or shed; --deadline-ms= (or the
// per-request number) bounds each optimizer run's wall time, so an
// overloaded item returns its best-so-far plan with status
// deadline_exceeded — such plans are never cached. --budget-evals= is the
// deterministic analogue and IS cacheable (docs/robustness.md).
//
// Telemetry: the qo.serve.request_us histogram (one sample per frame,
// timed from the return of FrameReader::Next, after any resync frame is
// written, through the periodic-snapshot check) and its qo.serve.parse_us
// part (with a serve.parse trace slice); the `ping`/`health` verbs and
// the shutdown stderr line report the governor, store and cache totals.
// --json-out/--trace-out/--latency-table come from the shared harness
// flags; with --json-out each computed request also emits its
// `optimizer_run` record.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "io/framing.h"
#include "io/serialization.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "qo/overload.h"
#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
#include "util/fault_injection.h"

namespace aqo {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

// Formats a double with enough digits to round-trip, so equal bits print
// equal bytes (the warm/cold differential depends on this).
std::string FormatG17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct ServerConfig {
  BatchOptions qon_batch;
  BatchOptions qoh_batch;
  int64_t snapshot_every = 0;  // optimize requests between rotations; 0 = off
};

// Emits one `overload_decision` JSONL record for a shed or degraded
// request (admits are the common case and stay silent).
void LogOverloadDecision(const std::string& id, const OverloadDecision& d,
                         const std::string& requested,
                         const std::string& effective) {
  if (obs::RunLog* log = obs::RunLog::Global()) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "overload_decision";
    record["id"] = id;
    record["tier"] = OverloadTierName(d.tier);
    record["pressure_permille"] = d.pressure_permille;
    record["optimizer"] = requested;
    if (d.tier == OverloadTier::kDegrade) record["effective"] = effective;
    record["reason"] = d.reason;
    log->Write(record);
  }
}

// What differs between the QO_N and QO_H halves of ServeOptimize; the
// request flow itself is shared, in the shape of RunBatch<Traits> in
// qo/service.cc.
struct QonServe {
  using Instance = QonInstance;
  static ParseResult<QonInstance> Parse(std::string_view body) {
    return ParseQonInstance(body);
  }
  static constexpr auto Registry = &OptimizerRegistry::Qon;
  static constexpr auto Optimize = &OptimizeQonBatch;
  static constexpr BatchOptions ServerConfig::*kConfig =
      &ServerConfig::qon_batch;
  static constexpr OptimizerOptions BatchOptions::*kKnobs = &BatchOptions::qon;

  static void WritePipelines(std::ostream&, const OptimizerResult&) {}
};

struct QohServe {
  using Instance = QohInstance;
  static ParseResult<QohInstance> Parse(std::string_view body) {
    return ParseQohInstance(body);
  }
  static constexpr auto Registry = &QohOptimizerRegistry::Get;
  static constexpr auto Optimize = &OptimizeQohBatch;
  static constexpr BatchOptions ServerConfig::*kConfig =
      &ServerConfig::qoh_batch;
  static constexpr QohOptimizerOptions BatchOptions::*kKnobs =
      &BatchOptions::qoh;

  static void WritePipelines(std::ostream& out,
                             const QohOptimizerResult& result) {
    out << "\npipelines";
    for (int v : result.decomposition.starts) out << " " << v;
  }
};

// One optimize request of family `family` (the instance's first token):
// parses `body`, admits, runs a single-instance batch through the shared
// cache, formats the response payload. A non-empty `optimizer` (the
// per-request `optimizer=<name>` header token) overrides the configured
// entry, and `deadline_ms` the configured budget deadline, for this
// request only.
template <typename Family>
std::string ServeFamily(const std::string& id, std::string_view family,
                        std::optional<double> deadline_ms,
                        const std::string& optimizer,
                        std::string_view body, const ServerConfig& config,
                        PlanCache* cache, LoadGovernor* governor) {
  static obs::Histogram& parse_us =
      obs::Registry::Get().GetHistogram("qo.serve.parse_us");
  std::ostringstream out;
  auto parsed = [&] {
    obs::TraceSpan slice("serve.parse", "serve");
    obs::ScopedLatencyTimer timer(parse_us);
    return Family::Parse(body);
  }();
  if (!parsed.ok()) {
    out << "err " << id << " parse: " << parsed.error;
    return out.str();
  }
  auto& inst = *parsed.value;
  BatchOptions options = config.*Family::kConfig;
  auto& knobs = options.*Family::kKnobs;
  options.cache = cache;
  if (deadline_ms) knobs.budget.deadline_ms = *deadline_ms;
  auto admission = Admit(Family::Registry(),
                         optimizer.empty() ? options.optimizer : optimizer,
                         inst.NumRelations(), *governor, &knobs);
  const OverloadDecision& d = admission.decision;
  if (d.tier != OverloadTier::kAdmit) {
    LogOverloadDecision(id, d, admission.requested->name,
                        admission.entry->name);
  }
  if (!admission.error.empty()) {
    out << "err " << id << " " << admission.error;
    return out.str();
  }
  options.optimizer = admission.entry->name;
  std::vector<typename Family::Instance> batch;
  batch.push_back(std::move(inst));
  auto items = Family::Optimize(batch, options);
  const auto& item = items.front();
  out << "ok " << id << " " << family
      << " feasible=" << (item.result.feasible ? 1 : 0)
      << " status=" << PlanStatusName(item.result.status)
      << " cost_log2=" << FormatG17(item.result.cost.Log2())
      << " evaluations=" << item.result.evaluations;
  if (d.tier == OverloadTier::kDegrade) out << " degraded=1";
  if (item.result.feasible) {
    out << "\nseq";
    for (int v : item.result.sequence) out << " " << v;
    Family::WritePipelines(out, item.result);
  }
  return out.str();
}

std::string ServeOptimize(const std::string& id,
                          std::optional<double> deadline_ms,
                          const std::string& optimizer,
                          std::string_view body, const ServerConfig& config,
                          PlanCache* cache, LoadGovernor* governor) {
  // The family is the body's first whitespace-separated token, even past
  // blank lines; a body that opens with a comment line names the
  // comment's first word ('#', 'c') and is refused.
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::string_view family = body.substr(
      std::min(body.size(), body.find_first_not_of(kSpace)));
  family = family.substr(0, family.find_first_of(kSpace));
  if (family == "qon") {
    return ServeFamily<QonServe>(id, family, deadline_ms, optimizer, body,
                                 config, cache, governor);
  }
  if (family == "qoh") {
    return ServeFamily<QohServe>(id, family, deadline_ms, optimizer, body,
                                 config, cache, governor);
  }
  return "err " + id + " parse: unknown instance family '" +
         std::string(family) + "' (expected qon or qoh)";
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::RunLogSession session(flags, "aqo_serve", /*default_seed=*/1);

  ServerConfig config;
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.qon_batch.optimizer = flags.GetString("optimizer", "dp");
  config.qon_batch.qon = bench::ReadQonKnobs(flags);
  config.qon_batch.seed = seed;
  config.qoh_batch.optimizer = flags.GetString("qoh-optimizer", "greedy");
  config.qoh_batch.qoh = bench::ReadQohKnobs(flags);
  config.qoh_batch.seed = seed;
  if (config.qon_batch.optimizer == "help" ||
      config.qoh_batch.optimizer == "help") {
    std::cout << OptimizerRegistry::Qon().Describe()
              << QohOptimizerRegistry::Get().Describe();
    return 0;
  }
  config.snapshot_every = flags.GetInt("snapshot-every", 0);

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
  if (OptimizerRegistry::Qon().Find(config.qon_batch.optimizer) == nullptr) {
    std::cerr << "error: unknown QO_N optimizer '"
              << config.qon_batch.optimizer << "'\n";
    return 2;
  }
  if (QohOptimizerRegistry::Get().Find(config.qoh_batch.optimizer) ==
      nullptr) {
    std::cerr << "error: unknown QO_H optimizer '"
              << config.qoh_batch.optimizer << "'\n";
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
  FrameReader frames(std::cin, [](const std::string& p) {
    return p.rfind("req ", 0) == 0 || p.rfind("ping ", 0) == 0 ||
           p.rfind("health ", 0) == 0 || p.rfind("snapshot ", 0) == 0;
  });
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
    // First line: "<verb> <id> [tokens]"; the rest is the body.
    size_t eol = payload.find('\n');
    std::string head =
        eol == std::string::npos ? payload : payload.substr(0, eol);
    std::string_view body = eol == std::string::npos
                                ? std::string_view()
                                : std::string_view(payload).substr(eol + 1);
    std::istringstream header(head);
    std::string verb, id;
    header >> verb >> id;
    std::string response;
    if (verb == "req" && !id.empty()) {
      // Optional header tokens after the id: a number strtod reads whole
      // is a deadline override, `optimizer=<name>` selects the registry
      // entry for this request (aqo_loadgen --optimizer= emits it).
      std::optional<double> deadline_ms;
      std::string optimizer;
      std::string bad_token;
      for (std::string token; bad_token.empty() && header >> token;) {
        char* end = nullptr;
        if (token.rfind("optimizer=", 0) == 0) {
          optimizer = token.substr(10);
        } else if (double ms = std::strtod(token.c_str(), &end);
                   end == token.c_str() + token.size()) {
          deadline_ms = ms;
        } else {
          bad_token = token;
        }
      }
      response = bad_token.empty()
                     ? ServeOptimize(id, deadline_ms, optimizer, body,
                                     config, &cache, &governor)
                     : "err " + id + " header: '" + bad_token +
                           "' is neither optimizer=<name> nor a deadline"
                           " in ms";
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
      if (store == nullptr) {
        response = "err " + id + " snapshot: no --cache-dir configured";
      } else if (store->SaveSnapshot(cache)) {
        response = "ok " + id + " snapshot";
      } else {
        response = "err " + id + " snapshot: " + store->error();
      }
    } else {
      response = "err ? bad request header: " + head;
    }
    WriteFrame(std::cout, response);
    std::cout.flush();
    if (store != nullptr && config.snapshot_every > 0 &&
        since_snapshot >= config.snapshot_every) {
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
