#ifndef AQO_IO_FRAMING_H_
#define AQO_IO_FRAMING_H_

// Length-prefixed message framing for the aqo_serve wire protocol
// (docs/persistence.md): each frame is a u32 little-endian payload length
// followed by that many payload bytes. Payloads are opaque here — the
// server layers a small line-oriented request/response text format on
// top (tools/aqo_serve.cc).
//
// Reading distinguishes three outcomes: a complete frame, clean EOF (the
// stream ended exactly on a frame boundary — how a client says goodbye),
// and error (truncated frame or an implausible length; reason suitable
// for `error: <source>: <reason>`). A truncated final frame is the
// streaming analogue of the persistence layer's torn tail.
//
// Corruption recovery: FrameReader wraps a stream and, instead of
// treating an implausible length prefix as fatal, resynchronizes — it
// slides a byte at a time until it finds a prefix whose length is
// plausible and whose payload passes the caller's validator (for the
// serve protocol: "starts with a known verb"). Skipped garbage is
// counted, never silently swallowed: the frame after a resync is flagged
// with the skipped byte count (last_skipped()), so the server can answer
// `err ? parse: resynchronized after N bytes ...` for the corrupt region.
// Scanning buffers unconsumed candidate bytes internally, so a rejected
// candidate loses no data — which is why resync lives in a stateful
// reader rather than a free function.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace aqo {

// Upper bound on a single frame payload; larger prefixes are treated as
// protocol corruption, not gigantic requests.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameRead {
  kFrame,  // *payload filled
  kEof,    // clean end of stream on a frame boundary
  kError,  // *error filled
};

// Appends the length prefix + payload to `os` (no flush; callers decide
// when to flush, e.g. once per response).
void WriteFrame(std::ostream& os, const std::string& payload);

// Reads one frame, no resync. On kError, `*error` holds a one-line
// reason.
FrameRead ReadFrame(std::istream& is, std::string* payload,
                    std::string* error);

// --- fd-level framing (pipes; aqo_loadgen / aqo_chaos drive modes) ---

// Full, EINTR-retrying write; false on error.
bool WriteAllFd(int fd, const char* data, size_t size);
// Writes one frame (prefix + payload); false on error.
bool WriteFrameFd(int fd, const std::string& payload);
// Reads one frame: 1 = frame, 0 = clean EOF, -1 = error/truncation.
int ReadFrameFd(int fd, std::string* payload);

// --- Resynchronizing reader ---

class FrameReader {
 public:
  // Returns true when `payload` is plausibly a real frame payload. Only
  // consulted while resynchronizing after corruption — well-framed
  // payloads are delivered regardless (payload-level validation is the
  // protocol layer's job). Null = accept any plausible length.
  using Validator = std::function<bool(const std::string& payload)>;

  explicit FrameReader(std::istream& is, Validator validator = nullptr)
      : is_(is), validator_(std::move(validator)) {}

  // Reads the next frame, resynchronizing past corrupt bytes if needed.
  // kError is reserved for unrecoverable states (stream ended mid-frame
  // or mid-scan). After kFrame, resynced() says whether garbage was
  // skipped immediately before this frame and last_skipped() how many
  // bytes.
  FrameRead Next(std::string* payload, std::string* error);

  bool resynced() const { return last_skipped_ > 0; }
  uint64_t last_skipped() const { return last_skipped_; }

 private:
  // Ensures buffer_ holds at least `need` bytes, reading from is_.
  // False: stream exhausted first.
  bool Fill(size_t need);

  std::istream& is_;
  Validator validator_;
  std::string buffer_;  // bytes read but not yet consumed
  uint64_t last_skipped_ = 0;
};

}  // namespace aqo

#endif  // AQO_IO_FRAMING_H_
