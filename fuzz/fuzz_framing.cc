// Fuzz target: io/framing.h — the frame codec and the resynchronizing
// FrameReader that guards the aqo_serve stdin loop. Any input must
// terminate without crashing, and the reader must account for every byte
// it consumed: frames delivered + garbage skipped never exceed the input.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "io/framing.h"
#include "io/serve_request.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Resync slides one byte at a time (O(garbage^2) worst case); the cap
  // keeps a pathological input from looking like a hang.
  constexpr size_t kMaxInput = 1 << 14;
  if (size > kMaxInput) size = kMaxInput;
  std::string bytes(reinterpret_cast<const char*>(data), size);

  // The strict single-frame reader must fill exactly one of its outputs.
  {
    std::istringstream is(bytes);
    std::string payload;
    std::string error;
    aqo::FrameRead read = aqo::ReadFrame(is, &payload, &error);
    if (read == aqo::FrameRead::kError) AQO_CHECK(!error.empty());
  }

  std::istringstream is(bytes);
  // The serve loop's validator.
  aqo::FrameReader reader(is, aqo::StartsWithServeVerb);
  std::string payload;
  std::string error;
  uint64_t consumed = 0;
  for (;;) {
    aqo::FrameRead read = reader.Next(&payload, &error);
    if (read == aqo::FrameRead::kFrame) {
      consumed += 4 + payload.size() + reader.last_skipped();
      continue;
    }
    if (read == aqo::FrameRead::kError) AQO_CHECK(!error.empty());
    break;
  }
  AQO_CHECK(consumed <= bytes.size())
      << "FrameReader accounted for more bytes than the input held";
  return 0;
}
