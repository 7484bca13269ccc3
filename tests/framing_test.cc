// The wire framing layer (io/framing.h): codec round trips, the precise
// error for every malformed-stream shape, the ServerProcess client over
// its pipes, and the FrameReader resynchronization contract — garbage between frames is
// skipped and counted, never silently swallowed and never fatal, while a
// truncated stream in a clean state is still a hard error. The committed
// fixtures (examples/fixtures/frames_{valid,garbage}.bin) pin the exact
// byte streams the serve corrupt-frame regression replays.

#include "io/framing.h"

#include <sys/wait.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/serve_request.h"

namespace aqo {
namespace {

std::string Framed(const std::vector<std::string>& payloads) {
  std::ostringstream os;
  for (const std::string& p : payloads) WriteFrame(os, p);
  return os.str();
}

TEST(Framing, WriteThenReadRoundTripsIncludingEmptyPayloads) {
  std::istringstream is(Framed({"req r0\nhello", "", "ping p0"}));
  std::string payload;
  std::string error;
  EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kFrame);
  EXPECT_EQ(payload, "req r0\nhello");
  EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kFrame);
  EXPECT_EQ(payload, "ping p0");
  EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kEof);
}

TEST(Framing, ReadErrorsNameTheMalformation) {
  std::string payload;
  std::string error;
  {
    // Prefix cut short.
    std::istringstream is(std::string("\x05\x00", 2));
    EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kError);
    EXPECT_NE(error.find("truncated frame length prefix"),
              std::string::npos);
  }
  {
    // Payload cut short.
    std::string bytes = Framed({"abcdef"});
    bytes.resize(bytes.size() - 3);
    std::istringstream is(bytes);
    EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kError);
    EXPECT_NE(error.find("truncated frame payload (3 of 6"),
              std::string::npos);
  }
  {
    // Length over the cap is corruption, not a gigantic request.
    std::istringstream is(std::string("\xff\xff\xff\xff", 4));
    EXPECT_EQ(ReadFrame(is, &payload, &error), FrameRead::kError);
    EXPECT_NE(error.find("implausible frame length"), std::string::npos);
  }
}

// ServerProcess against /bin/cat: every byte sent comes back, so frames
// and raw frame bytes echo, an empty payload included, and closing its
// stdin ends the echo with a clean EOF.
TEST(ServerProcessTest, CatEchoesFramesAndCloseInputGivesACleanEof) {
  ServerProcess cat({"/bin/cat"});
  ASSERT_TRUE(cat.Send("req r0\nqon 3"));
  ASSERT_TRUE(cat.Send(""));
  ASSERT_TRUE(cat.SendBytes(Framed({"ping p0"})));
  cat.CloseInput();
  std::string payload;
  EXPECT_EQ(cat.Receive(&payload), 1);
  EXPECT_EQ(payload, "req r0\nqon 3");
  EXPECT_EQ(cat.Receive(&payload), 1);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(cat.Receive(&payload), 1);
  EXPECT_EQ(payload, "ping p0");
  EXPECT_EQ(cat.Receive(&payload), 0);  // clean EOF
  EXPECT_FALSE(cat.Send("late"));
  int status = cat.Wait();
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A child that exits at once: a send larger than any pipe buffer is still
// writing when the read end closes, and must fail instead of raising
// SIGPIPE in the test.
TEST(ServerProcessTest, SendToAnExitedChildFailsWithoutKillingTheClient) {
  ServerProcess gone({"/bin/true"});
  EXPECT_FALSE(gone.Send(std::string(size_t{4} << 20, 'x')));
  std::string payload;
  EXPECT_EQ(gone.Receive(&payload), 0);
  int status = gone.Wait();
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServerProcessTest, KillEndsAChildBlockedOnItsInput) {
  ServerProcess cat({"/bin/cat"});
  ASSERT_TRUE(cat.Send("req r0"));
  std::string payload;
  EXPECT_EQ(cat.Receive(&payload), 1);
  cat.Kill();
  EXPECT_EQ(cat.Receive(&payload), 0);
  int status = cat.Wait();
  ASSERT_TRUE(WIFSIGNALED(status)) << status;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(FrameReaderTest, CleanStreamDeliversWithoutResync) {
  std::istringstream is(Framed({"req a", "ping b", "req c"}));
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  for (const char* want : {"req a", "ping b", "req c"}) {
    ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
    EXPECT_EQ(payload, want);
    EXPECT_FALSE(reader.resynced());
  }
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kEof);
}

TEST(FrameReaderTest, GarbageBetweenFramesIsSkippedAndCounted) {
  // High-bit garbage: no 4-byte window decodes to a plausible length
  // (the top prefix byte puts every candidate over kMaxFrameBytes).
  std::string bytes = Framed({"req a"});
  bytes += "\x81\x93\xa7\xbb\xcf";
  bytes += Framed({"ping b", "req c"});
  std::istringstream is(bytes);
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;

  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "req a");
  EXPECT_FALSE(reader.resynced());

  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "ping b");
  EXPECT_TRUE(reader.resynced());
  EXPECT_EQ(reader.last_skipped(), 5u);

  // The resync flag covers exactly one frame.
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "req c");
  EXPECT_FALSE(reader.resynced());

  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kEof);
}

TEST(FrameReaderTest, ValidatorRejectsEmbeddedFrameShapedGarbage) {
  // Mid-garbage sits a well-formed frame whose payload is not protocol
  // text. Without a validator the reader locks onto it and delivers the
  // noise; with one, it slides past the impostor and finds the real
  // frame. (The validator is only consulted while resyncing — the
  // leading high-bit bytes put the reader into that state.)
  std::string garbage = "\x81\x92\xa3\xb4" + Framed({"zzz"});
  std::string bytes = Framed({"req a"}) + garbage + Framed({"req b"});
  std::string payload;
  std::string error;
  {
    std::istringstream is(bytes);
    FrameReader reader(is, StartsWithServeVerb);
    ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
    EXPECT_EQ(payload, "req a");
    ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
    EXPECT_EQ(payload, "req b");
    EXPECT_TRUE(reader.resynced());
    EXPECT_EQ(reader.last_skipped(), garbage.size());
  }
  {
    std::istringstream is(bytes);
    FrameReader reader(is);  // no validator: the impostor wins
    ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
    ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
    EXPECT_EQ(payload, "zzz");
    EXPECT_EQ(reader.last_skipped(), 4u);
  }
}

TEST(FrameReaderTest, PlausibleOverrunningLengthMidResyncSlidesOnward) {
  // Mid-garbage, one window decodes to ~1 MiB — plausible, but far past
  // the end of the stream. The reader must treat it as more garbage and
  // keep sliding (the overread bytes stay buffered), not report the
  // stream truncated.
  std::string bytes = Framed({"req a"});
  bytes += std::string("\xff\x00\x00\x10\x00", 5);
  bytes += Framed({"req b"});
  std::istringstream is(bytes);
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "req a");
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "req b");
  EXPECT_EQ(reader.last_skipped(), 5u);
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kEof);
}

TEST(FrameReaderTest, CleanStateTruncationIsStillAHardError) {
  std::string bytes = Framed({"req a", "req b"});
  bytes.resize(bytes.size() - 2);  // tear the final payload
  std::istringstream is(bytes);
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kError);
  EXPECT_NE(error.find("truncated frame payload"), std::string::npos);
}

TEST(FrameReaderTest, TrailingGarbageEndsInAResyncError) {
  std::string bytes = Framed({"req a"});
  bytes += "\x81\x93\xa7\xbb";
  std::istringstream is(bytes);
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kError);
  EXPECT_NE(error.find("stream ended while resynchronizing"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fixture replay: the committed byte streams behind the serve
// corrupt-frame regression (tests/run_serve_corrupt_frame.cmake) and the
// fuzz corpus. frames_garbage.bin is frames_valid.bin with 9 bytes of
// high-bit garbage spliced between the first and second frame.

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(AQO_EXAMPLES_DIR) + "/fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FrameFixtures, ValidFixtureCarriesThreeCleanFrames) {
  std::istringstream is(ReadFixture("frames_valid.bin"));
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload.rfind("req r0\n", 0), 0u);
  EXPECT_FALSE(reader.resynced());
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "ping p0");
  EXPECT_FALSE(reader.resynced());
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload.rfind("req r1\n", 0), 0u);
  EXPECT_FALSE(reader.resynced());
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kEof);
}

TEST(FrameFixtures, GarbageFixtureResyncsOnceAndLosesNoFrames) {
  std::istringstream is(ReadFixture("frames_garbage.bin"));
  FrameReader reader(is, StartsWithServeVerb);
  std::string payload;
  std::string error;
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload.rfind("req r0\n", 0), 0u);
  EXPECT_FALSE(reader.resynced());
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload, "ping p0");
  EXPECT_TRUE(reader.resynced());
  EXPECT_EQ(reader.last_skipped(), 9u);
  ASSERT_EQ(reader.Next(&payload, &error), FrameRead::kFrame) << error;
  EXPECT_EQ(payload.rfind("req r1\n", 0), 0u);
  EXPECT_FALSE(reader.resynced());
  EXPECT_EQ(reader.Next(&payload, &error), FrameRead::kEof);
}

}  // namespace
}  // namespace aqo
