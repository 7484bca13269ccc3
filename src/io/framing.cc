#include "io/framing.h"

#include <unistd.h>

#include <cerrno>
#include <istream>
#include <ostream>
#include <sstream>

namespace aqo {

namespace {

uint32_t DecodeLen(const char* p) {
  uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(p[i]);
  }
  return len;
}

}  // namespace

void WriteFrame(std::ostream& os, const std::string& payload) {
  char prefix[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  os.write(prefix, sizeof(prefix));
  os.write(payload.data(),
           static_cast<std::streamsize>(payload.size()));
}

FrameRead ReadFrame(std::istream& is, std::string* payload,
                    std::string* error) {
  char prefix[4];
  is.read(prefix, sizeof(prefix));
  std::streamsize got = is.gcount();
  if (got == 0) return FrameRead::kEof;
  if (got < static_cast<std::streamsize>(sizeof(prefix))) {
    std::ostringstream why;
    why << "truncated frame length prefix (" << got << " of 4 bytes)";
    *error = why.str();
    return FrameRead::kError;
  }
  uint32_t len = DecodeLen(prefix);
  if (len > kMaxFrameBytes) {
    std::ostringstream why;
    why << "implausible frame length " << len << " (max " << kMaxFrameBytes
        << ")";
    *error = why.str();
    return FrameRead::kError;
  }
  payload->resize(len);
  if (len > 0) {
    is.read(payload->data(), static_cast<std::streamsize>(len));
    if (is.gcount() < static_cast<std::streamsize>(len)) {
      std::ostringstream why;
      why << "truncated frame payload (" << is.gcount() << " of " << len
          << " bytes)";
      *error = why.str();
      return FrameRead::kError;
    }
  }
  return FrameRead::kFrame;
}

bool WriteAllFd(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += wrote;
    size -= static_cast<size_t>(wrote);
  }
  return true;
}

bool WriteFrameFd(int fd, const std::string& payload) {
  char prefix[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  return WriteAllFd(fd, prefix, sizeof(prefix)) &&
         WriteAllFd(fd, payload.data(), payload.size());
}

int ReadFrameFd(int fd, std::string* payload) {
  char prefix[4];
  size_t got = 0;
  while (got < sizeof(prefix)) {
    ssize_t r = ::read(fd, prefix + got, sizeof(prefix) - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<size_t>(r);
  }
  uint32_t len = DecodeLen(prefix);
  if (len > kMaxFrameBytes) return -1;
  payload->resize(len);
  size_t off = 0;
  while (off < len) {
    ssize_t r = ::read(fd, payload->data() + off, len - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return -1;
    off += static_cast<size_t>(r);
  }
  return 1;
}

// --- FrameReader ---

bool FrameReader::Fill(size_t need) {
  while (buffer_.size() < need) {
    if (!is_.good()) return false;
    size_t want = need - buffer_.size();
    size_t old = buffer_.size();
    buffer_.resize(old + want);
    is_.read(buffer_.data() + old, static_cast<std::streamsize>(want));
    size_t got = static_cast<size_t>(is_.gcount());
    buffer_.resize(old + got);
    if (got < want) return false;  // stream exhausted mid-fill
  }
  return true;
}

FrameRead FrameReader::Next(std::string* payload, std::string* error) {
  last_skipped_ = 0;
  if (!Fill(4)) {
    if (buffer_.empty()) return FrameRead::kEof;
    std::ostringstream why;
    why << "truncated frame length prefix (" << buffer_.size()
        << " of 4 bytes)";
    *error = why.str();
    return FrameRead::kError;
  }
  while (true) {
    uint32_t len = DecodeLen(buffer_.data());
    if (len <= kMaxFrameBytes) {
      bool filled = Fill(4 + static_cast<size_t>(len));
      if (!filled && last_skipped_ == 0) {
        // Clean state: a genuinely truncated final frame.
        std::ostringstream why;
        why << "truncated frame payload (" << (buffer_.size() - 4) << " of "
            << len << " bytes)";
        *error = why.str();
        return FrameRead::kError;
      }
      if (filled) {
        std::string candidate = buffer_.substr(4, len);
        // Clean-state frames are delivered as-is; while resyncing, the
        // validator keeps us from mistaking garbage-embedded lengths for
        // frame boundaries.
        if (last_skipped_ == 0 || !validator_ || validator_(candidate)) {
          buffer_.erase(0, 4 + static_cast<size_t>(len));
          *payload = std::move(candidate);
          return FrameRead::kFrame;
        }
      }
      // While resyncing, a garbage window can decode to a plausible
      // length that overruns the stream; the overread bytes stay in
      // buffer_, so sliding onward loses nothing — fall through.
    }
    // Corrupt prefix (or rejected candidate): slide one byte and rescan.
    buffer_.erase(0, 1);
    ++last_skipped_;
    if (!Fill(4)) {
      std::ostringstream why;
      why << "stream ended while resynchronizing (skipped " << last_skipped_
          << " bytes, no frame boundary found)";
      *error = why.str();
      return FrameRead::kError;
    }
  }
}

}  // namespace aqo
