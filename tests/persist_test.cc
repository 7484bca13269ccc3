// Durable plan-cache persistence (qo/persist.h): record codec round
// trips, the precise damage reason for every corruption class (the
// committed fixtures under examples/fixtures/persist/), salvage of
// everything before a damage point, torn-tail tolerance at *every*
// truncation offset, PlanStore snapshot/journal recovery incl. a
// 10k-entry journal, and warm-vs-cold service-batch equivalence through
// a recovered cache (which exercises the QO_H pipeline-sentinel remap on
// recovered plans). Crash-point sweeps live in persist_crash_test.cc.

#include "qo/persist.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "qo/fingerprint.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/log_double.h"
#include "util/random.h"

namespace aqo {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(AQO_EXAMPLES_DIR) + "/fixtures/persist/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A scratch state directory unique to the running test.
std::string TestDir(const std::string& tag) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = testing::TempDir() + "aqo_persist_" +
                    info->test_suite_name() + "_" + info->name() + "_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

PersistedEntry MakeEntry(uint64_t id, int seq_len, int starts_len) {
  PersistedEntry entry;
  entry.key = Hash128{id * 0x9e3779b97f4a7c15ULL + 1, ~id};
  entry.plan.feasible = true;
  for (int i = 0; i < seq_len; ++i) {
    entry.plan.sequence.push_back((i + static_cast<int>(id)) % 31);
  }
  for (int i = 0; i < starts_len; ++i) {
    entry.plan.pipeline_starts.push_back(i + 1);
  }
  entry.plan.cost = LogDouble::FromLog2(3.25 * static_cast<double>(id) - 7.0);
  entry.plan.evaluations = 17 + id;
  entry.plan.status = PlanStatus::kComplete;
  return entry;
}

void ExpectEntryEq(const PersistedEntry& got, const PersistedEntry& want) {
  EXPECT_EQ(got.key.lo, want.key.lo);
  EXPECT_EQ(got.key.hi, want.key.hi);
  EXPECT_EQ(got.plan.feasible, want.plan.feasible);
  EXPECT_EQ(got.plan.sequence, want.plan.sequence);
  EXPECT_EQ(got.plan.pipeline_starts, want.plan.pipeline_starts);
  // Bit-exact cost: compare the log2 exponents as bit patterns, so -inf
  // (a zero-cost plan) compares equal too.
  EXPECT_EQ(std::bit_cast<uint64_t>(got.plan.cost.Log2()),
            std::bit_cast<uint64_t>(want.plan.cost.Log2()));
  EXPECT_EQ(got.plan.evaluations, want.plan.evaluations);
  EXPECT_EQ(got.plan.status, want.plan.status);
}

std::string FileWith(const std::vector<PersistedEntry>& entries,
                     PersistFileKind kind = PersistFileKind::kSnapshot) {
  std::string bytes = EncodePersistHeader(kind);
  for (const PersistedEntry& e : entries) bytes += EncodePersistRecord(e);
  return bytes;
}

PersistFileInfo Recover(const std::string& bytes,
                        PersistFileKind kind = PersistFileKind::kSnapshot) {
  return RecoverPersistFile(bytes, kind);
}

// The entries of a file that reads whole: no damage and no torn tail.
std::vector<PersistedEntry> ReadIntact(const std::string& bytes) {
  PersistFileInfo info = Recover(bytes);
  EXPECT_TRUE(info.damage.empty()) << info.damage;
  EXPECT_FALSE(info.torn_tail);
  return std::move(info.entries);
}

// ---------------------------------------------------------------------------
// Record codec.

TEST(PersistCodec, RoundTripsPlansOfEveryShape) {
  std::vector<PersistedEntry> entries;
  entries.push_back(MakeEntry(1, 9, 3));  // typical QO_H plan
  entries.push_back(MakeEntry(2, 9, 0));  // QO_N plan: no pipeline starts
  // n = 0: empty sequence (the empty instance is a legal, feasible plan).
  entries.push_back(MakeEntry(3, 0, 0));
  // n = 1: singleton.
  entries.push_back(MakeEntry(4, 1, 1));
  // Infeasible: no plan payload at all, cost is zero (log2 = -inf).
  PersistedEntry infeasible;
  infeasible.key = Hash128{5, 50};
  infeasible.plan.feasible = false;
  entries.push_back(infeasible);
  // Best-so-far status survives (the cacheable non-complete status).
  PersistedEntry budget = MakeEntry(6, 4, 2);
  budget.plan.status = PlanStatus::kBudgetExhausted;
  entries.push_back(budget);

  std::vector<PersistedEntry> parsed = ReadIntact(FileWith(entries));
  ASSERT_EQ(parsed.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectEntryEq(parsed[i], entries[i]);
  }
}

TEST(PersistCodec, EmptyFileIsAValidEmptySet) {
  EXPECT_TRUE(ReadIntact(FileWith({})).empty());
}

// ---------------------------------------------------------------------------
// Damage reasons: every corruption class has a precise one.

// Recovery of `bytes` stops on damage whose reason contains `reason`,
// after salvaging `salvaged` entries.
void ExpectDamage(const std::string& bytes, const std::string& reason,
                  size_t salvaged,
                  PersistFileKind kind = PersistFileKind::kSnapshot) {
  PersistFileInfo info = Recover(bytes, kind);
  EXPECT_NE(info.damage.find(reason), std::string::npos)
      << "damage was: '" << info.damage << "' (wanted substring: " << reason
      << ")";
  EXPECT_EQ(info.entries.size(), salvaged);
}

TEST(PersistStrict, HeaderCorruptionReasons) {
  std::string valid = FileWith({MakeEntry(1, 3, 0)});

  std::string bad_magic = valid;
  bad_magic[3] ^= 0xFF;
  ExpectDamage(bad_magic, "bad magic", 0);

  std::string wrong_version = valid;
  wrong_version[8] = 99;
  ExpectDamage(wrong_version, "unsupported format version 99", 0);

  ExpectDamage(valid.substr(0, 10), "truncated header (10 of 16 bytes)", 0);
  ExpectDamage(valid, "wrong file kind 1 (expected 2 = log)", 0,
               PersistFileKind::kLog);
}

TEST(PersistStrict, RecordCorruptionReasons) {
  std::string valid = FileWith({MakeEntry(1, 3, 0), MakeEntry(2, 3, 0)});
  size_t record0_end = 16 + 8 + 44 + 12;

  std::string crc_flip = valid;
  crc_flip[record0_end + 8 + 2] ^= 0x01;  // inside record #1's payload
  ExpectDamage(crc_flip, "record #1: CRC mismatch", 1);

  PersistFileInfo torn = Recover(valid.substr(0, valid.size() - 5));
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_TRUE(torn.damage.empty()) << torn.damage;
  EXPECT_EQ(torn.entries.size(), 1u);

  // A flipped length byte makes the stored CRC cover different bytes, so
  // it surfaces as either a CRC mismatch or a torn record — both stop
  // the read after record #0.
  std::string bad_len = valid;
  bad_len[record0_end] ^= 0x04;
  PersistFileInfo info = Recover(bad_len);
  EXPECT_TRUE(!info.damage.empty() || info.torn_tail);
  EXPECT_EQ(info.entries.size(), 1u);
}

TEST(PersistStrict, PayloadValidationRejectsPoisonBits) {
  // Corrupt specific payload fields but keep the CRC consistent by
  // re-encoding the frame around the mutated payload, so validation (not
  // the checksum) must catch each one.
  auto reframe = [](const std::string& payload) {
    std::string file = EncodePersistHeader(PersistFileKind::kSnapshot);
    std::string record;
    for (int i = 0; i < 4; ++i) {
      record.push_back(
          static_cast<char>((payload.size() >> (8 * i)) & 0xFF));
    }
    uint32_t crc = Crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i) {
      record.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
    return file + record + payload;
  };

  std::string base_record = EncodePersistRecord(MakeEntry(1, 2, 0));
  std::string payload = base_record.substr(8);

  std::string bad_feasible = payload;
  bad_feasible[16] = 7;
  ExpectDamage(reframe(bad_feasible), "invalid feasible flag 7", 0);

  std::string bad_status = payload;
  bad_status[17] = 9;
  ExpectDamage(reframe(bad_status), "invalid plan status 9", 0);

  std::string bad_cost = payload;
  for (int i = 0; i < 8; ++i) {
    bad_cost[36 + i] = static_cast<char>(0xFF);  // a NaN bit pattern
  }
  ExpectDamage(reframe(bad_cost), "invalid cost bits", 0);

  std::string bad_seq_len = payload;
  bad_seq_len[20] = 5;  // claims 5 sequence ints; payload carries 2
  ExpectDamage(reframe(bad_seq_len), "length mismatch", 0);

  std::string negative_id = payload;
  for (int i = 0; i < 4; ++i) {
    negative_id[44 + i] = static_cast<char>(0xFF);  // sequence[0] = -1
  }
  ExpectDamage(reframe(negative_id), "negative relation id", 0);
}

// ---------------------------------------------------------------------------
// Lenient salvage.

TEST(PersistRecover, SalvagesEveryRecordBeforeTheDamage) {
  std::vector<PersistedEntry> entries = {MakeEntry(1, 4, 2), MakeEntry(2, 4, 2),
                                         MakeEntry(3, 4, 2)};
  std::string valid = FileWith(entries);
  size_t record_size = 8 + 44 + 4 * 6;
  // Flip a payload byte of record #2: records #0 and #1 must salvage.
  std::string damaged = valid;
  damaged[16 + 2 * record_size + 8 + 1] ^= 0x10;
  PersistFileInfo info = Recover(damaged);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_NE(info.damage.find("record #2: CRC mismatch"), std::string::npos)
      << info.damage;
  ASSERT_EQ(info.entries.size(), 2u);
  ExpectEntryEq(info.entries[0], entries[0]);
  ExpectEntryEq(info.entries[1], entries[1]);
}

TEST(PersistRecover, ToleratesTruncationAtEveryByteOffset) {
  std::vector<PersistedEntry> entries = {MakeEntry(1, 3, 1),
                                         MakeEntry(2, 3, 1)};
  std::string valid = FileWith(entries);
  size_t record_size = 8 + 44 + 4 * 4;
  size_t header_end = 16;
  for (size_t cut = header_end; cut < valid.size(); ++cut) {
    SCOPED_TRACE(cut);
    PersistFileInfo info = Recover(valid.substr(0, cut));
    EXPECT_TRUE(info.damage.empty()) << info.damage;
    size_t whole_records = (cut - header_end) / record_size;
    bool mid_record = (cut - header_end) % record_size != 0;
    EXPECT_EQ(info.entries.size(), whole_records);
    EXPECT_EQ(info.torn_tail, mid_record);
    for (size_t i = 0; i < info.entries.size(); ++i) {
      ExpectEntryEq(info.entries[i], entries[i]);
    }
  }
}

TEST(PersistRecover, HeaderDamageSalvagesNothing) {
  std::string valid = FileWith({MakeEntry(1, 2, 0)});
  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  PersistFileInfo info = Recover(bad_magic);
  EXPECT_TRUE(info.entries.empty());
  EXPECT_NE(info.damage.find("bad magic"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Committed corruption fixtures (examples/fixtures/persist/, generated by
// tools/persist_fixture_gen.cc). These pin the on-disk format: if the
// codec changes shape, these tests fail before any deployed state breaks.

TEST(PersistFixtures, ValidFixtureRoundTrips) {
  std::vector<PersistedEntry> parsed =
      ReadIntact(ReadFileBytes(FixturePath("valid.bin")));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].key.lo, 0x1111111111111111ULL);
  EXPECT_EQ(parsed[0].plan.sequence, (std::vector<int>{1, 3, 2, 4}));
  EXPECT_EQ(parsed[0].plan.pipeline_starts, (std::vector<int>{1, 3}));
  EXPECT_EQ(parsed[0].plan.cost.Log2(), 10.5);
  EXPECT_EQ(parsed[1].plan.cost.Log2(), 11.5);
}

TEST(PersistFixtures, EachCorruptionReportsItsPreciseReason) {
  ExpectDamage(ReadFileBytes(FixturePath("bad_magic.bin")),
               "bad magic (not an AQO plan-cache file)", 0);
  ExpectDamage(ReadFileBytes(FixturePath("wrong_version.bin")),
               "unsupported format version 99 (expected 1)", 0);
  ExpectDamage(ReadFileBytes(FixturePath("truncated_header.bin")),
               "truncated header (6 of 16 bytes)", 0);
  ExpectDamage(ReadFileBytes(FixturePath("crc_flip.bin")),
               "record #1: CRC mismatch", 1);
  PersistFileInfo torn = Recover(ReadFileBytes(FixturePath("torn_tail.bin")));
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_TRUE(torn.damage.empty()) << torn.damage;
  EXPECT_EQ(torn.entries.size(), 1u);
}

TEST(PersistFixtures, DamagedFixturesSalvageEverythingBeforeTheDamage) {
  for (const char* name : {"crc_flip.bin", "torn_tail.bin"}) {
    SCOPED_TRACE(name);
    PersistFileInfo info = Recover(ReadFileBytes(FixturePath(name)));
    ASSERT_EQ(info.entries.size(), 1u) << "record #0 must salvage";
    EXPECT_EQ(info.entries[0].key.lo, 0x1111111111111111ULL);
    EXPECT_EQ(info.entries[0].plan.cost.Log2(), 10.5);
  }
}

// ---------------------------------------------------------------------------
// PlanStore: snapshot + journal lifecycle.

CachedPlan TestPlan(int tag) {
  CachedPlan plan;
  plan.feasible = true;
  plan.sequence = {tag % 5, (tag + 1) % 5, (tag + 2) % 5};
  plan.cost = LogDouble::FromLog2(1.5 * tag);
  plan.evaluations = static_cast<uint64_t>(tag) * 3 + 1;
  return plan;
}

Hash128 TestKey(uint64_t i) {
  HashAccumulator acc(0x70657273697374ULL);
  acc.Add(i);
  return acc.Digest();
}

TEST(PlanStore, SnapshotThenRecoverReproducesTheCache) {
  std::string dir = TestDir("snap");
  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
  for (int i = 0; i < 32; ++i) cache.Insert(TestKey(i), TestPlan(i));

  PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ASSERT_TRUE(store.SaveSnapshot(cache)) << store.error();

  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->had_snapshot);
  EXPECT_EQ(stats.value->snapshot_entries, 32u);
  EXPECT_EQ(stats.value->entries_loaded, 32u);
  EXPECT_FALSE(stats.value->torn_tail);
  for (int i = 0; i < 32; ++i) {
    CachedPlan out;
    ASSERT_TRUE(warm.Lookup(TestKey(i), &out)) << i;
    EXPECT_EQ(out.sequence, TestPlan(i).sequence);
    EXPECT_EQ(std::bit_cast<uint64_t>(out.cost.Log2()),
              std::bit_cast<uint64_t>(TestPlan(i).cost.Log2()));
    EXPECT_EQ(out.evaluations, TestPlan(i).evaluations);
  }
}

TEST(PlanStore, WriteThroughJournalRecoversWithoutASnapshot) {
  std::string dir = TestDir("journal");
  {
    PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
    PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
    store.AttachTo(&cache);
    for (int i = 0; i < 10; ++i) cache.Insert(TestKey(i), TestPlan(i));
    EXPECT_FALSE(store.failed()) << store.error();
    // Re-inserting an existing key is a refresh, not a new insert: no
    // duplicate journal record.
    cache.Insert(TestKey(3), TestPlan(3));
  }
  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_FALSE(stats.value->had_snapshot);
  EXPECT_TRUE(stats.value->had_log);
  EXPECT_EQ(stats.value->log_entries, 10u);
  EXPECT_EQ(warm.GetStats().entries, 10u);
}

TEST(PlanStore, TornJournalTailIsRepairedAndAppendable) {
  std::string dir = TestDir("repair");
  {
    PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
    PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
    store.AttachTo(&cache);
    for (int i = 0; i < 4; ++i) cache.Insert(TestKey(i), TestPlan(i));
  }
  // Tear the last record, as a crash mid-append would.
  std::string path = dir + "/journal.log";
  std::string bytes = ReadFileBytes(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));

  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = store.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->torn_tail);
  EXPECT_EQ(stats.value->log_entries, 3u);

  // The tail was truncated at recovery; appending extends a clean file.
  store.AttachTo(&warm);
  warm.Insert(TestKey(100), TestPlan(100));
  EXPECT_FALSE(store.failed()) << store.error();

  PlanCache warm2(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats2 = reader.LoadAndRecover(&warm2);
  ASSERT_TRUE(stats2.ok()) << stats2.error;
  EXPECT_FALSE(stats2.value->torn_tail);
  EXPECT_EQ(stats2.value->log_entries, 4u);  // 3 salvaged + 1 appended
}

// A record whose frame and CRC check out but whose payload does not
// decode is damage, not a torn tail: recovery salvages the records before
// it and truncates the journal to exactly their end, dropping the bad
// record and everything after it.
TEST(PlanStore, UndecodableJournalRecordIsTruncatedAway) {
  std::string dir = TestDir("undecodable");
  std::filesystem::create_directories(dir);
  std::string good = EncodePersistHeader(PersistFileKind::kLog);
  for (uint64_t id = 1; id <= 3; ++id) {
    good += EncodePersistRecord(MakeEntry(id, 4, 0));
  }
  std::string bad = EncodePersistRecord(MakeEntry(4, 4, 0));
  bad[8 + 16] = 7;  // feasible flag 7; re-sign the CRC so only decode fails
  uint32_t crc = Crc32(bad.data() + 8, bad.size() - 8);
  for (int i = 0; i < 4; ++i) bad[4 + i] = static_cast<char>(crc >> (8 * i));
  std::string path = dir + "/journal.log";
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << good << bad << EncodePersistRecord(MakeEntry(5, 4, 0));

  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = store.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_FALSE(stats.value->torn_tail);
  EXPECT_NE(stats.value->damage.find("record #3: invalid feasible flag 7"),
            std::string::npos)
      << stats.value->damage;
  EXPECT_EQ(stats.value->log_entries, 3u);
  EXPECT_EQ(ReadFileBytes(path), good);
}

TEST(PlanStore, UnreadableHeaderIsAHardError) {
  std::string dir = TestDir("alien");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/snapshot.bin", std::ios::binary)
      << "definitely not an AQO file";
  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = store.LoadAndRecover(&cache);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("snapshot.bin"), std::string::npos);
  EXPECT_NE(stats.error.find("bad magic"), std::string::npos);
}

// Acceptance criterion: a 10k-entry journal recovers with every record's
// CRC verified, and the latency lands in qo.persist.recover_us.
TEST(PlanStore, TenThousandEntryJournalRecovers) {
  std::string dir = TestDir("10k");
  constexpr int kEntries = 10000;
  {
    PlanCache cache(PlanCacheOptions{.byte_budget = 64 << 20, .shards = 8});
    PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
    store.AttachTo(&cache);
    for (int i = 0; i < kEntries; ++i) cache.Insert(TestKey(i), TestPlan(i));
    EXPECT_FALSE(store.failed()) << store.error();
  }
  uint64_t recover_count_before = obs::Registry::Get()
                                      .GetHistogram("qo.persist.recover_us")
                                      .Snapshot()
                                      .count;

  PlanCache warm(PlanCacheOptions{.byte_budget = 64 << 20, .shards = 8});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_EQ(stats.value->log_entries, static_cast<uint64_t>(kEntries));
  EXPECT_EQ(stats.value->entries_loaded, static_cast<uint64_t>(kEntries));
  EXPECT_TRUE(stats.value->damage.empty()) << stats.value->damage;
  EXPECT_EQ(warm.GetStats().entries, static_cast<uint64_t>(kEntries));
  // recover_us was recorded (the histogram saw one more sample)...
  uint64_t recover_count_after = obs::Registry::Get()
                                     .GetHistogram("qo.persist.recover_us")
                                     .Snapshot()
                                     .count;
  EXPECT_EQ(recover_count_after, recover_count_before + 1);
  // ...and spot-check recovered bits across the range.
  for (int i : {0, 1, 4999, 9998, 9999}) {
    CachedPlan out;
    ASSERT_TRUE(warm.Lookup(TestKey(i), &out)) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(out.cost.Log2()),
              std::bit_cast<uint64_t>(TestPlan(i).cost.Log2()));
  }
}

// ---------------------------------------------------------------------------
// The circuit breaker (docs/robustness.md): a write failure trips the
// store read-only instead of latching it dead; a deterministic backoff
// counted in refused writes schedules a probe append that repairs the
// torn tail and reopens the breaker. persist_crash_test.cc's faults
// simulate process death, which never lives to probe; these tests cover
// the transient-fault path the breaker exists for.

// The backoff window Fail() computes for trip number `trip` — replicated
// here so the tests assert the exact probe point, not just "eventually".
uint64_t ExpectedBackoff(const PersistBreakerOptions& breaker,
                         uint64_t trip) {
  uint64_t shift = trip > 20 ? 20 : trip - 1;
  uint64_t base = std::min(kBreakerBackoffBase << shift, kBreakerBackoffMax);
  Rng jitter(MixSeed(breaker.seed, trip));
  return base + static_cast<uint64_t>(jitter.UniformInt(
                    0, static_cast<int64_t>(kBreakerBackoffBase)));
}

TEST(PlanStoreBreaker, TripRefuseProbeReopenRepairsTheJournal) {
  std::string dir = TestDir("trip");
  PersistOptions options{.dir = dir, .fsync = false, .breaker = {}};
  options.breaker.seed = 7;
  const uint64_t backoff = ExpectedBackoff(options.breaker, 1);

  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore store(options);
  store.AttachTo(&cache);
  for (int i = 0; i < 3; ++i) cache.Insert(TestKey(i), TestPlan(i));
  ASSERT_FALSE(store.failed()) << store.error();

  // The 4th append tears mid-record: healthy -> read-only, one trip.
  FaultInjector::Get().Arm("persist.append", 3);
  cache.Insert(TestKey(3), TestPlan(3));
  FaultInjector::Get().Disarm();
  EXPECT_EQ(store.health(), PersistHealth::kReadOnly);
  EXPECT_TRUE(store.failed());
  EXPECT_EQ(store.breaker_trips(), 1u);
  EXPECT_NE(store.error().find("injected crash"), std::string::npos);

  // The next backoff-1 writes are refused; the store stays read-only and
  // never touches the (torn) journal.
  int next = 4;
  for (uint64_t r = 0; r + 1 < backoff; ++r) {
    cache.Insert(TestKey(next), TestPlan(next));
    ++next;
    EXPECT_EQ(store.health(), PersistHealth::kReadOnly);
  }
  EXPECT_EQ(store.breaker_probes(), 0u);

  // Write number `backoff` is the probe: the journal reopen repairs the
  // torn tail first, the append succeeds, and the breaker reopens.
  const int probe_key = next;
  cache.Insert(TestKey(next), TestPlan(next));
  ++next;
  EXPECT_EQ(store.health(), PersistHealth::kHealthy);
  EXPECT_FALSE(store.failed());
  EXPECT_TRUE(store.error().empty());
  EXPECT_EQ(store.breaker_probes(), 1u);
  EXPECT_EQ(store.breaker_reopens(), 1u);

  // Post-reopen appends flow normally again.
  const int final_key = next;
  cache.Insert(TestKey(next), TestPlan(next));
  EXPECT_FALSE(store.failed());

  // Recovery sees exactly the pre-trip entries plus the probe-and-later
  // entries — no damage and no torn tail, because the probe truncated
  // the tear before re-appending. The faulted and refused entries never
  // reached disk.
  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->damage.empty()) << stats.value->damage;
  EXPECT_FALSE(stats.value->torn_tail);
  EXPECT_EQ(stats.value->log_entries, 5u);
  for (int i : {0, 1, 2, probe_key, final_key}) {
    CachedPlan out;
    EXPECT_TRUE(warm.Lookup(TestKey(i), &out)) << i;
  }
  CachedPlan out;
  EXPECT_FALSE(warm.Lookup(TestKey(3), &out));
}

TEST(PlanStoreBreaker, FailedProbeEscalatesToOpenThenRecovers) {
  std::string dir = TestDir("escalate");
  PersistOptions options{.dir = dir, .fsync = false, .breaker = {}};
  options.breaker.seed = 11;
  const uint64_t backoff1 = ExpectedBackoff(options.breaker, 1);
  const uint64_t backoff2 = ExpectedBackoff(options.breaker, 2);
  // Trip 2 doubles the base (16 + jitter): the ladder actually ladders.
  EXPECT_GE(backoff2, 2 * kBreakerBackoffBase);

  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore store(options);
  store.AttachTo(&cache);
  cache.Insert(TestKey(0), TestPlan(0));
  ASSERT_FALSE(store.failed()) << store.error();

  // Two shots at any ordinal: refused writes never reach the fault site,
  // so shot one is the trip and shot two is the failed probe.
  FaultInjector::Get().Arm("persist.append", FaultInjector::kAnyOrdinal,
                           /*times=*/2);
  int next = 1;
  cache.Insert(TestKey(next), TestPlan(next));
  ++next;
  EXPECT_EQ(store.health(), PersistHealth::kReadOnly);
  EXPECT_EQ(store.breaker_trips(), 1u);
  for (uint64_t r = 0; r + 1 < backoff1; ++r) {
    cache.Insert(TestKey(next), TestPlan(next));
    ++next;
  }
  EXPECT_EQ(store.breaker_probes(), 0u);
  // The probe fails too: read-only escalates to open.
  cache.Insert(TestKey(next), TestPlan(next));
  ++next;
  FaultInjector::Get().Disarm();
  EXPECT_EQ(store.health(), PersistHealth::kOpen);
  EXPECT_EQ(store.breaker_trips(), 2u);
  EXPECT_EQ(store.breaker_probes(), 1u);
  EXPECT_EQ(store.breaker_reopens(), 0u);

  // The longer second window elapses; the healthy probe closes the loop.
  for (uint64_t r = 0; r + 1 < backoff2; ++r) {
    cache.Insert(TestKey(next), TestPlan(next));
    ++next;
    EXPECT_EQ(store.health(), PersistHealth::kOpen);
  }
  cache.Insert(TestKey(next), TestPlan(next));
  EXPECT_EQ(store.health(), PersistHealth::kHealthy);
  EXPECT_EQ(store.breaker_probes(), 2u);
  EXPECT_EQ(store.breaker_reopens(), 1u);

  // The journal is clean end to end despite two mid-record tears.
  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->damage.empty()) << stats.value->damage;
  EXPECT_FALSE(stats.value->torn_tail);
}

TEST(PlanStoreBreaker, SnapshotWritesAreGatedAndCanProbe) {
  std::string dir = TestDir("snapgate");
  PersistOptions options{.dir = dir, .fsync = false, .breaker = {}};
  options.breaker.seed = 3;
  const uint64_t backoff = ExpectedBackoff(options.breaker, 1);

  PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  for (int i = 0; i < 8; ++i) cache.Insert(TestKey(i), TestPlan(i));
  PlanStore store(options);

  FaultInjector::Get().Arm("persist.snapshot", 0);
  EXPECT_FALSE(store.SaveSnapshot(cache));
  FaultInjector::Get().Disarm();
  EXPECT_EQ(store.health(), PersistHealth::kReadOnly);

  // Snapshot attempts are refused through the same gate...
  for (uint64_t r = 0; r + 1 < backoff; ++r) {
    EXPECT_FALSE(store.SaveSnapshot(cache));
    EXPECT_EQ(store.health(), PersistHealth::kReadOnly);
  }
  // ...and the probe slot lets a snapshot through and reopens.
  EXPECT_TRUE(store.SaveSnapshot(cache)) << store.error();
  EXPECT_EQ(store.health(), PersistHealth::kHealthy);
  EXPECT_EQ(store.breaker_reopens(), 1u);

  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 2});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->had_snapshot);
  EXPECT_EQ(stats.value->snapshot_entries, 8u);
}

// ---------------------------------------------------------------------------
// Sequence-relabeling edge cases (qo/fingerprint.h): the mapping applied
// to every cache hit, including recovered ones.

TEST(MapSequence, EmptyAndSingleton) {
  EXPECT_TRUE(MapSequenceFromCanonical({}, {}).empty());
  EXPECT_EQ(MapSequenceFromCanonical({0}, {0}), (JoinSequence{0}));
  // A singleton under a non-identity labeling still maps through.
  EXPECT_EQ(MapSequenceFromCanonical({1}, {3, 7}), (JoinSequence{7}));
}

// ---------------------------------------------------------------------------
// Warm service batches through a recovered cache are bit-identical to a
// cold computation — including QO_H, whose cached plans carry pipeline
// starts that must survive the persist round trip.

template <typename Item>
void ExpectItemsBitIdentical(const std::vector<Item>& got,
                             const std::vector<Item>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].result.feasible, want[i].result.feasible);
    EXPECT_EQ(got[i].result.sequence, want[i].result.sequence);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].result.cost.Log2()),
              std::bit_cast<uint64_t>(want[i].result.cost.Log2()));
    EXPECT_EQ(got[i].result.evaluations, want[i].result.evaluations);
    EXPECT_EQ(got[i].result.status, want[i].result.status);
  }
}

TEST(PersistService, RecoveredQohCacheReproducesColdResultsBitwise) {
  std::vector<QohInstance> instances;
  for (int b = 0; b < 4; ++b) {
    Rng rng(MixSeed(99, static_cast<uint64_t>(b)));
    instances.push_back(RandomQohWorkload(7, &rng));
    // A relabeled duplicate of each base, so warm hits cover the
    // canonical-to-caller remap (pipeline sentinel included).
    std::vector<int> perm = {3, 0, 6, 2, 5, 1, 4};
    instances.push_back(PermuteQohInstance(instances.back(), perm));
  }

  BatchOptions options;
  options.optimizer = "greedy";
  options.seed = 7;

  // Cold truth: no cache at all.
  std::vector<QohBatchItem> cold = OptimizeQohBatch(instances, options);

  // Populate a cache with a store attached, journaling every insert.
  std::string dir = TestDir("qoh");
  {
    PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
    PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
    store.AttachTo(&cache);
    BatchOptions with_cache = options;
    with_cache.cache = &cache;
    ExpectItemsBitIdentical(OptimizeQohBatch(instances, with_cache), cold);
    EXPECT_FALSE(store.failed()) << store.error();
  }

  // Recover into a fresh cache; every item must now hit and still match.
  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  ASSERT_GT(stats.value->entries_loaded, 0u);
  BatchOptions warm_options = options;
  warm_options.cache = &warm;
  std::vector<QohBatchItem> warmed = OptimizeQohBatch(instances, warm_options);
  for (const QohBatchItem& item : warmed) EXPECT_TRUE(item.from_cache);
  ExpectItemsBitIdentical(warmed, cold);
}

TEST(PersistService, RecoveredQonCacheReproducesColdResultsBitwise) {
  std::vector<QonInstance> instances;
  for (int b = 0; b < 4; ++b) {
    Rng rng(MixSeed(42, static_cast<uint64_t>(b)));
    instances.push_back(RandomQonWorkload(8, &rng));
  }
  BatchOptions options;
  options.optimizer = "dp";
  options.seed = 3;
  std::vector<QonBatchItem> cold = OptimizeQonBatch(instances, options);

  std::string dir = TestDir("qon");
  {
    PlanCache cache(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
    PlanStore store(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
    store.AttachTo(&cache);
    BatchOptions with_cache = options;
    with_cache.cache = &cache;
    OptimizeQonBatch(instances, with_cache);
    ASSERT_TRUE(store.SaveSnapshot(cache)) << store.error();
  }

  PlanCache warm(PlanCacheOptions{.byte_budget = 1 << 20, .shards = 4});
  PlanStore reader(PersistOptions{.dir = dir, .fsync = false, .breaker = {}});
  ParseResult<RecoveryStats> stats = reader.LoadAndRecover(&warm);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.value->had_snapshot);
  BatchOptions warm_options = options;
  warm_options.cache = &warm;
  std::vector<QonBatchItem> warmed = OptimizeQonBatch(instances, warm_options);
  for (const QonBatchItem& item : warmed) EXPECT_TRUE(item.from_cache);
  ExpectItemsBitIdentical(warmed, cold);
}

}  // namespace
}  // namespace aqo
