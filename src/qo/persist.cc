#include "qo/persist.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <sstream>
#include <tuple>

#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace aqo {

namespace {

// 8-byte magic shared by both file kinds; the kind field tells them apart
// so a journal can never be mistaken for a snapshot.
constexpr char kMagic[8] = {'A', 'Q', 'O', 'P', 'L', 'A', 'N', 'C'};
constexpr size_t kHeaderBytes = 16;
// Fixed (non-array) portion of a record payload; see EncodePersistRecord.
constexpr size_t kFixedPayloadBytes = 44;
// Records larger than this are implausible for any real plan (a plan is
// two int vectors); a bigger stored length is corruption, not a big plan.
constexpr uint32_t kMaxRecordBytes = 16u << 20;

// The qo.persist.{appends,append_bytes,fsyncs} counters: e2ebench's
// serve replay (e2ebench/benchkit/replay_serve.cc) reads these by name.
obs::Counter& CounterRef(const char* name) {
  return obs::Registry::Get().GetCounter(name);
}

obs::Histogram& HistogramRef(const char* name) {
  return obs::Registry::Get().GetHistogram(name);
}

// Explicit little-endian codec: persisted bytes must mean the same thing
// on every machine, so nothing here depends on host byte order.
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string EncodePayload(const PersistedEntry& entry) {
  const CachedPlan& plan = entry.plan;
  std::string out;
  out.reserve(kFixedPayloadBytes +
              4 * (plan.sequence.size() + plan.pipeline_starts.size()));
  PutU64(&out, entry.key.lo);
  PutU64(&out, entry.key.hi);
  out.push_back(plan.feasible ? 1 : 0);
  out.push_back(static_cast<char>(plan.status));
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  PutU32(&out, static_cast<uint32_t>(plan.sequence.size()));
  PutU32(&out, static_cast<uint32_t>(plan.pipeline_starts.size()));
  PutU64(&out, plan.evaluations);
  // The cost travels as the raw bit pattern of its log2 exponent: a
  // recovered plan must cost *bitwise* what the computed plan cost.
  PutU64(&out, std::bit_cast<uint64_t>(plan.cost.Log2()));
  for (int v : plan.sequence) {
    PutU32(&out, static_cast<uint32_t>(v));
  }
  for (int v : plan.pipeline_starts) {
    PutU32(&out, static_cast<uint32_t>(v));
  }
  AQO_DCHECK(out.size() ==
             kFixedPayloadBytes +
                 4 * (plan.sequence.size() + plan.pipeline_starts.size()));
  return out;
}

// Pre-validates everything a downstream AQO_CHECK would abort on
// (LogDouble::FromLog2 rejects NaN/+inf; negative relation ids would
// index out of bounds later). Untrusted bytes never reach those checks.
bool DecodePayload(const unsigned char* p, size_t len, PersistedEntry* out,
                   std::string* error) {
  std::ostringstream why;
  if (len < kFixedPayloadBytes) {
    why << "payload too short (" << len << " of " << kFixedPayloadBytes
        << " fixed bytes)";
    *error = why.str();
    return false;
  }
  out->key.lo = GetU64(p);
  out->key.hi = GetU64(p + 8);
  unsigned char feasible = p[16];
  unsigned char status = p[17];
  if (feasible > 1) {
    why << "invalid feasible flag " << static_cast<int>(feasible);
    *error = why.str();
    return false;
  }
  if (status > static_cast<unsigned char>(PlanStatus::kFailed)) {
    why << "invalid plan status " << static_cast<int>(status);
    *error = why.str();
    return false;
  }
  uint32_t seq_len = GetU32(p + 20);
  uint32_t starts_len = GetU32(p + 24);
  uint64_t expected =
      kFixedPayloadBytes + 4ull * seq_len + 4ull * starts_len;
  if (expected != len) {
    why << "length mismatch (payload " << len << " bytes, header implies "
        << expected << ")";
    *error = why.str();
    return false;
  }
  uint64_t evaluations = GetU64(p + 28);
  double cost_log2 = std::bit_cast<double>(GetU64(p + 36));
  if (std::isnan(cost_log2) ||
      cost_log2 == std::numeric_limits<double>::infinity()) {
    *error = "invalid cost bits (NaN or +inf log2 exponent)";
    return false;
  }
  CachedPlan& plan = out->plan;
  plan.feasible = feasible == 1;
  plan.status = static_cast<PlanStatus>(status);
  plan.evaluations = evaluations;
  plan.cost = LogDouble::FromLog2(cost_log2);
  plan.sequence.resize(seq_len);
  plan.pipeline_starts.resize(starts_len);
  const unsigned char* arr = p + kFixedPayloadBytes;
  for (uint32_t i = 0; i < seq_len; ++i, arr += 4) {
    int v = static_cast<int>(GetU32(arr));
    if (v < 0) {
      why << "negative relation id " << v << " in sequence";
      *error = why.str();
      return false;
    }
    plan.sequence[i] = v;
  }
  for (uint32_t i = 0; i < starts_len; ++i, arr += 4) {
    int v = static_cast<int>(GetU32(arr));
    if (v < 0) {
      why << "negative pipeline start " << v;
      *error = why.str();
      return false;
    }
    plan.pipeline_starts[i] = v;
  }
  return true;
}

const char* KindName(PersistFileKind kind) {
  switch (kind) {
    case PersistFileKind::kSnapshot:
      return "snapshot";
    case PersistFileKind::kLog:
      return "log";
  }
  return "unknown";
}

// The file-header check of ScanPersistFile. Returns true and fills
// nothing on success; false with a precise reason otherwise.
bool CheckHeader(std::string_view bytes, PersistFileKind expected_kind,
                 std::string* error) {
  std::ostringstream why;
  if (bytes.size() < kHeaderBytes) {
    why << "truncated header (" << bytes.size() << " of " << kHeaderBytes
        << " bytes)";
    *error = why.str();
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    *error = "bad magic (not an AQO plan-cache file)";
    return false;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  uint32_t version = GetU32(p + 8);
  if (version != kPersistFormatVersion) {
    why << "unsupported format version " << version << " (expected "
        << kPersistFormatVersion << ")";
    *error = why.str();
    return false;
  }
  uint32_t kind = GetU32(p + 12);
  if (kind != static_cast<uint32_t>(expected_kind)) {
    why << "wrong file kind " << kind << " (expected "
        << static_cast<uint32_t>(expected_kind) << " = "
        << KindName(expected_kind) << ")";
    *error = why.str();
    return false;
  }
  return true;
}

struct ScanResult {
  PersistFileInfo info;
  bool header_ok = false;
  // Header + all intact records: the byte count a repair truncates to.
  size_t valid_bytes = 0;
};

// The replay loop RecoverPersistFile, LoadAndRecover and the journal
// repair share: header, then per record the frame (length + CRC) and the
// plan-entry payload, stopping at the first torn or damaged record.
ScanResult ScanPersistFile(std::string_view bytes,
                           PersistFileKind expected_kind) {
  ScanResult scan;
  if (!CheckHeader(bytes, expected_kind, &scan.info.damage)) return scan;
  scan.header_ok = true;
  scan.valid_bytes = kHeaderBytes;
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t pos = kHeaderBytes;
  for (size_t index = 0; pos < bytes.size(); ++index) {
    size_t remaining = bytes.size() - pos;
    if (remaining < 8) {
      scan.info.torn_tail = true;  // partial length/CRC prefix
      return scan;
    }
    uint32_t payload_len = GetU32(base + pos);
    uint32_t stored_crc = GetU32(base + pos + 4);
    if (payload_len > kMaxRecordBytes) {
      std::ostringstream why;
      why << "record #" << index << ": implausible payload length "
          << payload_len;
      scan.info.damage = why.str();
      return scan;
    }
    if (remaining - 8 < payload_len) {
      scan.info.torn_tail = true;  // record bytes run out: crash artifact
      return scan;
    }
    const unsigned char* payload = base + pos + 8;
    uint32_t computed_crc = Crc32(payload, payload_len);
    if (computed_crc != stored_crc) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "record #%zu: CRC mismatch (stored 0x%08x, computed "
                    "0x%08x)",
                    index, stored_crc, computed_crc);
      scan.info.damage = buf;
      return scan;
    }
    PersistedEntry entry;
    std::string decode_error;
    if (!DecodePayload(payload, payload_len, &entry, &decode_error)) {
      scan.info.damage = "record #" + std::to_string(index) + ": " +
                         decode_error;
      return scan;
    }
    scan.info.entries.push_back(std::move(entry));
    pos += 8 + payload_len;
    scan.valid_bytes = pos;
  }
  return scan;
}

std::string SlurpStream(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

// Full, blocking write of `data` to `fd`; false on any error.
bool WriteAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string EncodePersistHeader(PersistFileKind kind) {
  std::string out(kMagic, sizeof(kMagic));
  PutU32(&out, kPersistFormatVersion);
  PutU32(&out, static_cast<uint32_t>(kind));
  AQO_DCHECK(out.size() == kHeaderBytes);
  return out;
}

std::string EncodePersistRecord(const PersistedEntry& entry) {
  std::string payload = EncodePayload(entry);
  std::string out;
  out.reserve(8 + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

PersistFileInfo RecoverPersistFile(std::string_view bytes,
                                   PersistFileKind expected_kind) {
  return ScanPersistFile(bytes, expected_kind).info;
}

// --- PlanStore ---

PlanStore::PlanStore(const PersistOptions& options) : options_(options) {
  AQO_CHECK(!options_.dir.empty()) << "PersistOptions.dir must be set";
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  // An unwritable directory surfaces on the first write, with errno.
}

PlanStore::~PlanStore() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::string PlanStore::SnapshotPath() const {
  return options_.dir + "/snapshot.bin";
}

std::string PlanStore::JournalPath() const {
  return options_.dir + "/journal.log";
}

const char* PersistHealthName(PersistHealth health) {
  switch (health) {
    case PersistHealth::kHealthy:
      return "healthy";
    case PersistHealth::kReadOnly:
      return "readonly";
    case PersistHealth::kOpen:
      return "open";
  }
  return "unknown";
}

void PlanStore::SetHealth(PersistHealth health, const std::string& reason) {
  health_ = health;
  if (obs::RunLog* log = obs::RunLog::Global()) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "persist_health";
    record["dir"] = options_.dir;
    record["health"] = PersistHealthName(health);
    if (!reason.empty()) record["reason"] = reason;
    record["trips"] = trips_;
    record["probes"] = probes_;
    record["reopens"] = reopens_;
    record["backoff"] = backoff_current_;
    log->Write(record);
  }
}

bool PlanStore::Fail(const std::string& reason) {
  error_ = reason;
  probe_in_flight_ = false;
  // healthy -> read-only on the first failure; a failed probe (we were
  // already unhealthy) escalates to open.
  PersistHealth next = health_ == PersistHealth::kHealthy
                           ? PersistHealth::kReadOnly
                           : PersistHealth::kOpen;
  ++trips_;
  refused_since_trip_ = 0;
  // Exponential backoff in refused-write units, deterministic jitter from
  // the breaker seed so probe points reproduce run to run.
  uint64_t shift = trips_ > 20 ? 20 : trips_ - 1;
  uint64_t base = std::min(kBreakerBackoffBase << shift, kBreakerBackoffMax);
  Rng jitter(MixSeed(options_.breaker.seed, trips_));
  backoff_current_ =
      base + static_cast<uint64_t>(jitter.UniformInt(
                 0, static_cast<int64_t>(kBreakerBackoffBase)));
  SetHealth(next, reason);
  // One-shot operator warning (the silent-latch fix): a tripped store is
  // an event a human should see once, not per refused write.
  if (!warned_) {
    warned_ = true;
    std::cerr << "warning: plan store '" << options_.dir
              << "' tripped: " << reason << " — entering "
              << PersistHealthName(next) << " (probe after "
              << backoff_current_ << " refused writes)\n";
  }
  return false;
}

bool PlanStore::AllowWrite() {
  if (health_ == PersistHealth::kHealthy) return true;
  ++refused_since_trip_;
  if (refused_since_trip_ < backoff_current_) return false;
  // Probe slot: let this write through. Force a journal reopen first so
  // the repair path truncates any torn tail the trip left behind —
  // re-appending after a tear must never create mid-file garbage.
  ++probes_;
  probe_in_flight_ = true;
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  return true;
}

void PlanStore::Reopen() {
  ++reopens_;
  probe_in_flight_ = false;
  refused_since_trip_ = 0;
  backoff_current_ = 0;
  error_.clear();
  SetHealth(PersistHealth::kHealthy, "probe write succeeded");
}

bool PlanStore::SyncFd(int fd, const char* what) {
  static obs::Counter& fsyncs = CounterRef("qo.persist.fsyncs");
  uint64_t ordinal = fsync_ordinal_++;
  // Crash point: the k-th fsync "fails". The bytes are in the page cache
  // (intact for any same-machine reader) but durability was not promised.
  if (FaultInjector::Get().ShouldFail("persist.fsync", ordinal)) {
    std::ostringstream why;
    why << "injected fsync failure (" << what << ", fsync #" << ordinal
        << ")";
    return Fail(why.str());
  }
  if (::fsync(fd) != 0) {
    std::ostringstream why;
    why << "fsync failed (" << what << "): " << std::strerror(errno);
    return Fail(why.str());
  }
  fsyncs.Increment();
  return true;
}

bool PlanStore::OpenJournal(bool truncate) {
  if (journal_fd_ >= 0 && !truncate) return true;
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  std::string path = JournalPath();
  // A journal that was recovered (or never scanned) may carry a torn tail
  // or trailing damage; appending after it would turn a clean tail into
  // mid-file garbage. Repair first: truncate to the last intact record.
  if (!truncate) {
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) {
      std::string bytes = SlurpStream(in);
      if (!bytes.empty()) {
        ScanResult scan = ScanPersistFile(bytes, PersistFileKind::kLog);
        if (!scan.header_ok) {
          return Fail("journal.log: " + scan.info.damage);
        }
        if (scan.valid_bytes < bytes.size()) {
          if (::truncate(path.c_str(),
                         static_cast<off_t>(scan.valid_bytes)) != 0) {
            return Fail(std::string("journal repair truncate failed: ") +
                        std::strerror(errno));
          }
        }
      }
    }
  }
  int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Fail("cannot open journal.log: " +
                std::string(std::strerror(errno)));
  }
  journal_fd_ = fd;
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    std::string header = EncodePersistHeader(PersistFileKind::kLog);
    if (!WriteAll(fd, header.data(), header.size())) {
      return Fail(std::string("journal header write failed: ") +
                  std::strerror(errno));
    }
    if (options_.fsync && !SyncFd(fd, "journal header")) return false;
  }
  return true;
}

bool PlanStore::AppendEntry(const Hash128& key, const CachedPlan& plan) {
  static obs::Counter& appends = CounterRef("qo.persist.appends");
  static obs::Counter& append_bytes = CounterRef("qo.persist.append_bytes");
  static obs::Histogram& append_us = HistogramRef("qo.persist.append_us");
  std::lock_guard<std::mutex> lock(append_mu_);
  if (!AllowWrite()) return false;
  obs::ScopedLatencyTimer timer(append_us);
  if (!OpenJournal(/*truncate=*/false)) return false;
  std::string record = EncodePersistRecord(PersistedEntry{key, plan});
  uint64_t ordinal = append_ordinal_++;
  // Crash point: the k-th append dies mid-write. Half the record reaches
  // the file — exactly the torn tail a real crash leaves — and the store
  // stops writing, as the dead process would have.
  if (FaultInjector::Get().ShouldFail("persist.append", ordinal)) {
    WriteAll(journal_fd_, record.data(), record.size() / 2);
    std::ostringstream why;
    why << "injected crash during append #" << ordinal
        << " (record torn at byte " << record.size() / 2 << " of "
        << record.size() << ")";
    return Fail(why.str());
  }
  if (!WriteAll(journal_fd_, record.data(), record.size())) {
    return Fail(std::string("journal append failed: ") +
                std::strerror(errno));
  }
  if (options_.fsync && !SyncFd(journal_fd_, "journal append")) return false;
  appends.Increment();
  append_bytes.Add(record.size());
  if (probe_in_flight_) Reopen();
  return true;
}

bool PlanStore::SaveSnapshot(const PlanCache& cache) {
  static obs::Histogram& snapshot_us =
      HistogramRef("qo.persist.snapshot_us");
  std::lock_guard<std::mutex> lock(append_mu_);
  if (!AllowWrite()) return false;
  obs::ScopedLatencyTimer timer(snapshot_us);

  std::vector<std::pair<Hash128, CachedPlan>> entries = cache.Export();
  std::string bytes = EncodePersistHeader(PersistFileKind::kSnapshot);
  for (const auto& [key, plan] : entries) {
    bytes += EncodePersistRecord(PersistedEntry{key, plan});
  }

  std::string tmp_path = SnapshotPath() + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Fail("cannot open snapshot.tmp: " +
                std::string(std::strerror(errno)));
  }
  uint64_t ordinal = snapshot_ordinal_++;
  // Crash point: the k-th snapshot rotation dies with snapshot.tmp half
  // written and no rename issued. The live snapshot and journal are
  // untouched, so recovery sees the pre-rotation state.
  if (FaultInjector::Get().ShouldFail("persist.snapshot", ordinal)) {
    WriteAll(fd, bytes.data(), bytes.size() / 2);
    ::close(fd);
    std::ostringstream why;
    why << "injected crash during snapshot rotation #" << ordinal
        << " (snapshot.tmp torn at byte " << bytes.size() / 2 << " of "
        << bytes.size() << ")";
    return Fail(why.str());
  }
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    ::close(fd);
    return Fail(std::string("snapshot write failed: ") +
                std::strerror(errno));
  }
  if (options_.fsync && !SyncFd(fd, "snapshot.tmp")) {
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), SnapshotPath().c_str()) != 0) {
    return Fail(std::string("snapshot rename failed: ") +
                std::strerror(errno));
  }
  if (options_.fsync) {
    // Make the rename itself durable: fsync the containing directory.
    int dir_fd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      bool ok = SyncFd(dir_fd, "state directory");
      ::close(dir_fd);
      if (!ok) return false;
    }
  }
  // The snapshot now holds everything, so the journal restarts empty. A
  // crash between rename and truncate leaves journal entries that are
  // also in the snapshot; replaying them is a harmless refresh (the key
  // determines the plan bits).
  if (!OpenJournal(/*truncate=*/true)) return false;
  if (probe_in_flight_) Reopen();
  return true;
}

ParseResult<RecoveryStats> PlanStore::LoadAndRecover(PlanCache* cache) {
  static obs::Histogram& recover_us =
      HistogramRef("qo.persist.recover_us");
  AQO_CHECK(cache != nullptr);
  ParseResult<RecoveryStats> result;
  RecoveryStats stats;
  auto start = std::chrono::steady_clock::now();

  // A leftover snapshot.tmp is a rotation that never committed; the live
  // snapshot supersedes it.
  std::error_code ec;
  std::filesystem::remove(SnapshotPath() + ".tmp", ec);

  auto load_file = [&](const std::string& path, PersistFileKind kind,
                       bool* existed, uint64_t* entry_count,
                       size_t* valid_bytes) -> bool {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      *existed = false;
      return true;
    }
    *existed = true;
    std::string bytes = SlurpStream(in);
    if (bytes.empty()) return true;  // freshly created, header not yet out
    ScanResult scan = ScanPersistFile(bytes, kind);
    if (!scan.header_ok) {
      // Not our file (or a future version): refusing beats silently
      // serving an empty cache over real state.
      result.error = path + ": " + scan.info.damage;
      return false;
    }
    if (!scan.info.damage.empty() && stats.damage.empty()) {
      stats.damage = path + ": " + scan.info.damage;
    }
    if (scan.info.torn_tail) stats.torn_tail = true;
    if (valid_bytes != nullptr) *valid_bytes = scan.valid_bytes;
    *entry_count = scan.info.entries.size();
    for (const PersistedEntry& entry : scan.info.entries) {
      cache->Insert(entry.key, entry.plan);
      ++stats.entries_loaded;
    }
    return true;
  };

  size_t journal_valid_bytes = 0;
  if (!load_file(SnapshotPath(), PersistFileKind::kSnapshot,
                 &stats.had_snapshot, &stats.snapshot_entries, nullptr)) {
    return result;
  }
  if (!load_file(JournalPath(), PersistFileKind::kLog, &stats.had_log,
                 &stats.log_entries, &journal_valid_bytes)) {
    return result;
  }
  // Repair a torn/damaged journal tail now, so later appends extend a
  // clean file. Best effort: should the truncate fail, OpenJournal's own
  // scan repairs the tail before the first append.
  if (stats.had_log && (stats.torn_tail || !stats.damage.empty())) {
    std::ignore = ::truncate(JournalPath().c_str(),
                             static_cast<off_t>(journal_valid_bytes));
  }

  stats.recover_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  recover_us.Record(stats.recover_us);

  if (obs::RunLog* log = obs::RunLog::Global()) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "persist_recovery";
    record["dir"] = options_.dir;
    record["had_snapshot"] = stats.had_snapshot;
    record["had_log"] = stats.had_log;
    record["snapshot_entries"] = stats.snapshot_entries;
    record["log_entries"] = stats.log_entries;
    record["entries_loaded"] = stats.entries_loaded;
    record["torn_tail"] = stats.torn_tail;
    if (!stats.damage.empty()) record["damage"] = stats.damage;
    record["recover_us"] = stats.recover_us;
    log->Write(record);
  }
  result.value = std::move(stats);
  return result;
}

void PlanStore::AttachTo(PlanCache* cache) {
  AQO_CHECK(cache != nullptr);
  cache->SetInsertObserver([this](const Hash128& key, const CachedPlan& plan) {
    AppendEntry(key, plan);
  });
}

}  // namespace aqo
