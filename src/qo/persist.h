#ifndef AQO_QO_PERSIST_H_
#define AQO_QO_PERSIST_H_

// Durable plan-cache persistence: a versioned binary snapshot +
// append-log format so a PlanCache survives process restarts (the
// long-running `aqo_serve` daemon warms its cache from disk and re-pays
// no optimization cost it already paid in a previous life).
//
// On-disk layout (docs/persistence.md has the byte diagram). A state
// directory holds two files sharing one record format:
//
//   snapshot.bin — the full cache contents at the last rotation. Written
//     to snapshot.tmp, fsync'd, then atomically rename(2)d into place, so
//     a crash never leaves a half-written snapshot under the live name.
//   journal.log  — entries inserted since that snapshot, appended one
//     record per insert (write-through from PlanCache's insert observer).
//
// Both start with a 16-byte header (8-byte magic "AQOPLANC", u32 format
// version, u32 kind: snapshot|log) followed by length-prefixed records:
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// The payload serializes one (Hash128 key, CachedPlan) pair — the key in
// canonical-fingerprint space, the plan in canonical labels, exactly the
// bits PlanCache holds in memory (LogDouble costs by bit pattern, so a
// recovered plan costs bitwise what the computed plan cost).
//
// Recovery contract:
//   * torn tail — a crash mid-append leaves a final record whose bytes
//     run out before payload_len; replay salvages every record before it
//     and reports torn_tail (a normal crash artifact, not corruption);
//   * corruption — a CRC mismatch or malformed payload stops replay at
//     the damage point, salvaging everything before it and reporting the
//     reason (RecoverPersistFile's `damage`; tests pin each reason on the
//     committed corruption fixtures);
//   * the snapshot is atomic by construction, so after any single crash
//     LoadAndRecover reconstructs exactly the successfully-persisted
//     prefix of the insert history (tests/persist_crash_test.cc sweeps
//     every injection ordinal and asserts service results stay
//     bit-identical to a cold cache).
//
// Crash-point testing rides util/fault_injection.h. Three sites, keyed by
// deterministic per-store counters:
//   "persist.append"   — the k-th AppendEntry tears mid-record (half the
//                        encoded bytes reach the file) and the store
//                        latches failed, as a crashed process would;
//   "persist.fsync"    — the k-th fsync is skipped and reported failed
//                        (data intact, durability not guaranteed);
//   "persist.snapshot" — the k-th SaveSnapshot dies after writing half of
//                        snapshot.tmp, before the rename.
//
// Telemetry: LoadAndRecover returns RecoveryStats and emits a
// `persist_recovery` run-log record with full provenance when a global
// run-log is attached; health() and the breaker_*() totals report the
// circuit breaker, and every transition emits a `persist_health` record.
// Appends, snapshots and recovery record into the qo.persist.{append_us,
// snapshot_us,recover_us} histograms; the qo.persist.{appends,
// append_bytes,fsyncs} counters are read only by e2ebench's in-process
// serve replay.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qo/plan_cache.h"
#include "util/hash.h"
#include "util/parse_result.h"

namespace aqo {

inline constexpr uint32_t kPersistFormatVersion = 1;

enum class PersistFileKind : uint32_t {
  kSnapshot = 1,
  kLog = 2,
  // 3 is retired and stays unassigned, so a file of that kind is
  // rejected as the wrong kind.
};

// The circuit breaker for PlanStore write failures (docs/robustness.md
// has the state machine). Backoff is counted in *refused write
// attempts*, not wall time, so the probe schedule is a pure function of
// the request stream — two runs with the same stream and fault schedule
// trip, probe, and reopen at identical points. Trip t waits
// min(kBreakerBackoffBase << (t - 1), kBreakerBackoffMax) refused writes
// plus a jitter in [0, kBreakerBackoffBase].
inline constexpr uint64_t kBreakerBackoffBase = 8;
inline constexpr uint64_t kBreakerBackoffMax = 1024;

struct PersistBreakerOptions {
  // Seeds the deterministic jitter added to each backoff window (spreads
  // probe points so a fleet of stores doesn't probe in lockstep while
  // staying reproducible per seed).
  uint64_t seed = 1;
};

struct PersistOptions {
  // Directory holding snapshot.bin / journal.log (created if absent).
  std::string dir;
  // fsync appended records and snapshot rotations. Turning this off keeps
  // crash *consistency* (the format tolerates torn tails regardless) but
  // trades durability of the last few records for append throughput.
  bool fsync = true;
  PersistBreakerOptions breaker;
};

// PlanStore health, reported by PlanStore::health() and the serve `ping`
// and `health` verbs:
//   kHealthy  — writes flow;
//   kReadOnly — first write failure: appends/snapshots are refused while
//               the breaker counts down to a probe; reads (the already-
//               recovered cache) are unaffected;
//   kOpen     — a probe failed too; same refusal, longer backoff.
enum class PersistHealth {
  kHealthy = 0,
  kReadOnly = 1,
  kOpen = 2,
};

const char* PersistHealthName(PersistHealth health);

// One persisted cache entry: canonical-fingerprint key + canonical-label
// plan, bit-for-bit what PlanCache stores.
struct PersistedEntry {
  Hash128 key;
  CachedPlan plan;
};

// Per-file replay result (RecoverPersistFile).
struct PersistFileInfo {
  std::vector<PersistedEntry> entries;  // salvaged, in write order
  bool torn_tail = false;  // file ends mid-record (crash artifact)
  std::string damage;      // non-empty: reason replay stopped early
};

// What LoadAndRecover did, also emitted as the `persist_recovery` record.
struct RecoveryStats {
  bool had_snapshot = false;
  bool had_log = false;
  uint64_t snapshot_entries = 0;
  uint64_t log_entries = 0;
  uint64_t entries_loaded = 0;  // inserted into the cache
  bool torn_tail = false;       // journal ended mid-record
  std::string damage;           // first corruption reason, if any
  uint64_t recover_us = 0;      // wall time, also qo.persist.recover_us
};

// --- Record codec (exposed for tests and fixture generation) ---

// Serializes one entry as a framed record (length + CRC + payload).
std::string EncodePersistRecord(const PersistedEntry& entry);

// The 16-byte file header for `kind`.
std::string EncodePersistHeader(PersistFileKind kind);

// --- Whole-file reader ---

// Salvages every record of a file's bytes before the first damage point.
// A header-level problem (bad magic, unsupported version, wrong kind,
// truncated header: the file is not ours at all) comes back as `damage`
// with zero entries; a CRC mismatch or malformed payload as `damage`
// naming the record. Torn tails are reported but are not damage.
PersistFileInfo RecoverPersistFile(std::string_view bytes,
                                   PersistFileKind expected_kind);

// --- The store ---

// Manages one state directory. Not thread-safe for concurrent Save/Append
// from multiple threads against the same store *except* AppendEntry,
// which takes an internal mutex (the PlanCache insert observer may fire
// from pool workers; the batch service appends serially regardless).
class PlanStore {
 public:
  explicit PlanStore(const PersistOptions& options);
  ~PlanStore();

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  // Writes the full contents of `cache` as a new snapshot (tmp + fsync +
  // atomic rename + directory fsync), then truncates the journal. False
  // on failure (reason in error()); the previous snapshot and journal
  // stay intact in that case.
  bool SaveSnapshot(const PlanCache& cache);

  // Appends one record to the journal (fsync per options). False on
  // failure or while the breaker is refusing writes. A failure trips the
  // circuit breaker: the store goes read-only (kReadOnly; repeated probe
  // failures escalate to kOpen) and refuses writes — keeping a torn tail
  // a *tail*, never garbage mid-file — until the deterministic backoff
  // elapses and a probe write succeeds, which repairs the journal tail
  // and returns the store to healthy.
  bool AppendEntry(const Hash128& key, const CachedPlan& plan);

  // Loads snapshot.bin and replays journal.log into `cache` (which should
  // be empty; entries are Insert()ed in write order, oldest first, so LRU
  // recency survives). Tolerates a torn journal tail; salvages up to any
  // damage point. Returns a ParseResult error only when a file exists but
  // its header is unreadable (not our file / unsupported version) — the
  // caller should not silently ignore that. Emits a `persist_recovery`
  // run-log record either way.
  //
  // Call before AttachTo: recovery inserts must not be re-appended.
  ParseResult<RecoveryStats> LoadAndRecover(PlanCache* cache);

  // Write-through wiring: every successful new insert into `cache` is
  // appended to the journal (PlanCache::SetInsertObserver).
  void AttachTo(PlanCache* cache);

  // Current circuit-breaker state. Transitions are logged to stderr
  // (one-shot per store, on the first trip) and to the run log as
  // `persist_health` records.
  PersistHealth health() const { return health_; }

  // True while unhealthy (read-only or open): writes are currently being
  // refused. This is *not* a permanent latch — a later successful probe
  // returns the store to healthy.
  bool failed() const { return health_ != PersistHealth::kHealthy; }
  // Reason for the most recent failure.
  const std::string& error() const { return error_; }

  // Breaker observability, deterministic given the write-attempt stream:
  uint64_t breaker_trips() const { return trips_; }
  uint64_t breaker_probes() const { return probes_; }
  uint64_t breaker_reopens() const { return reopens_; }

  std::string SnapshotPath() const;
  std::string JournalPath() const;
  const PersistOptions& options() const { return options_; }

 private:
  bool Fail(const std::string& reason);
  // fsyncs `fd`, observing the "persist.fsync" fault site; false on
  // (injected or real) failure.
  bool SyncFd(int fd, const char* what);
  bool OpenJournal(bool truncate);
  // Breaker gate, called with append_mu_ held at the top of every write
  // entry point. Healthy: proceed. Unhealthy: count a refused attempt,
  // and once the backoff window has elapsed let the write through as a
  // probe (forcing a journal reopen so the tail is repaired first) —
  // success reopens the breaker, failure escalates it.
  bool AllowWrite();
  // Probe success: back to healthy, reset the backoff ladder.
  void Reopen();
  void SetHealth(PersistHealth health, const std::string& reason);

  PersistOptions options_;
  int journal_fd_ = -1;
  PersistHealth health_ = PersistHealth::kHealthy;
  std::string error_;
  // Breaker state (all under append_mu_ on write paths).
  uint64_t trips_ = 0;
  uint64_t probes_ = 0;
  uint64_t reopens_ = 0;
  uint64_t refused_since_trip_ = 0;
  uint64_t backoff_current_ = 0;
  bool probe_in_flight_ = false;
  bool warned_ = false;
  // Deterministic fault-site ordinals (see header comment).
  uint64_t append_ordinal_ = 0;
  uint64_t fsync_ordinal_ = 0;
  uint64_t snapshot_ordinal_ = 0;
  std::mutex append_mu_;
};

}  // namespace aqo

#endif  // AQO_QO_PERSIST_H_
