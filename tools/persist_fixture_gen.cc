// persist_fixture_gen — writes the corruption fixtures under
// examples/fixtures/persist/ used by tests/persist_test.cc.
//
// Each fixture starts from the same valid two-record snapshot file and
// breaks exactly one invariant, so every test failure reason is isolated:
//
//   valid.bin            — untouched (the control)
//   bad_magic.bin        — first magic byte flipped
//   wrong_version.bin    — format version 99
//   truncated_header.bin — file ends 6 bytes into the 16-byte header
//   crc_flip.bin         — one payload byte of record #1 flipped (CRC now
//                          mismatches); record #0 must still salvage
//   torn_tail.bin        — record #1 cut mid-payload (crash artifact);
//                          record #0 must still salvage
//
// Also emits the fuzz-corpus seed fixtures one level up (fuzz/ and
// tests/serve_corrupt_frame use them):
//
//   frames_valid.bin     — three well-formed serve-protocol frames
//   frames_garbage.bin   — the same frames with raw garbage spliced
//                          between frames #1 and #2 (resync exercise)
//
// Deterministic: same bytes every run. Run from the repo root:
//   ./build/tools/persist_fixture_gen examples/fixtures/persist [examples/fixtures]

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "io/framing.h"
#include "qo/persist.h"
#include "util/log_double.h"

namespace aqo {
namespace {

PersistedEntry FixtureEntry(int i) {
  PersistedEntry entry;
  entry.key = Hash128{0x1111111111111111ULL * static_cast<uint64_t>(i + 1),
                      0x2222222222222222ULL * static_cast<uint64_t>(i + 1)};
  entry.plan.feasible = true;
  entry.plan.sequence = {1, 3, 2, 4};
  entry.plan.pipeline_starts = {1, 3};
  entry.plan.cost = LogDouble::FromLog2(10.5 + i);
  entry.plan.evaluations = 100 + static_cast<uint64_t>(i);
  entry.plan.status = PlanStatus::kComplete;
  return entry;
}

void WriteFixture(const std::string& dir, const std::string& name,
                  const std::string& bytes) {
  std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << name << " (" << bytes.size() << " bytes)\n";
}

int Main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "examples/fixtures/persist";

  std::string header = EncodePersistHeader(PersistFileKind::kSnapshot);
  std::string record0 = EncodePersistRecord(FixtureEntry(0));
  std::string record1 = EncodePersistRecord(FixtureEntry(1));
  std::string valid = header + record0 + record1;

  WriteFixture(dir, "valid.bin", valid);

  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  WriteFixture(dir, "bad_magic.bin", bad_magic);

  std::string wrong_version = valid;
  wrong_version[8] = 99;  // u32 LE version field at offset 8
  WriteFixture(dir, "wrong_version.bin", wrong_version);

  WriteFixture(dir, "truncated_header.bin", valid.substr(0, 6));

  std::string crc_flip = valid;
  // Flip one byte inside record #1's payload (8 bytes past its frame).
  crc_flip[header.size() + record0.size() + 8 + 4] ^= 0x01;
  WriteFixture(dir, "crc_flip.bin", crc_flip);

  // Cut record #1 in the middle of its payload.
  WriteFixture(dir, "torn_tail.bin",
               valid.substr(0, header.size() + record0.size() + 8 +
                                   (record1.size() - 8) / 2));

  std::string fixtures_root = argc > 2 ? argv[2] : "examples/fixtures";

  auto framed = [](const std::string& payload) {
    std::ostringstream os;
    WriteFrame(os, payload);
    return os.str();
  };
  std::string frame0 = framed(
      "req r0\nqon 3\nrel 0 4.0\nrel 1 5.0\nrel 2 6.0\n"
      "edge 0 1 -2.0\nedge 1 2 -1.5\n");
  std::string frame1 = framed("ping p0");
  std::string frame2 =
      framed("req r1\nqon 2\nrel 0 3.0\nrel 1 3.5\nedge 0 1 -1.0\n");
  WriteFixture(fixtures_root, "frames_valid.bin", frame0 + frame1 + frame2);

  // Garbage spliced after the first frame: bytes keep the high bit set so
  // no window decodes to a plausible length (io/framing.h resync path).
  std::string garbage = "\x81\x93\xa7\xbb\xcf\xd3\xe1\xf5\x89";
  WriteFixture(fixtures_root, "frames_garbage.bin",
               frame0 + garbage + frame1 + frame2);
  return 0;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
