#include "io/framing.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/fd.h"

namespace aqo {

namespace {

uint32_t DecodeLen(const char* p) {
  uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(p[i]);
  }
  return len;
}

// The u32 little-endian length prefix of a `size`-byte payload.
std::string LengthPrefix(size_t size) {
  std::string prefix(4, '\0');
  for (size_t i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((size >> (8 * i)) & 0xFF);
  }
  return prefix;
}

// Reads exactly `size` bytes: 1 = read, 0 = EOF before the first byte,
// -1 = an error or EOF after it.
int ReadExactly(int fd, char* data, size_t size) {
  for (size_t got = 0; got < size;) {
    ssize_t r = ::read(fd, data + got, size - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return r == 0 && got == 0 ? 0 : -1;
    got += static_cast<size_t>(r);
  }
  return 1;
}

}  // namespace

void WriteFrame(std::ostream& os, const std::string& payload) {
  os.write(LengthPrefix(payload.size()).data(), 4);
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

// --- ServerProcess ---

ServerProcess::ServerProcess(const std::vector<std::string>& argv) {
  AQO_CHECK(!argv.empty());
  std::signal(SIGPIPE, SIG_IGN);
  // Built before fork: the child of a threaded process must not allocate.
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int to[2];
  int from[2];
  AQO_CHECK(::pipe2(to, O_CLOEXEC) == 0 && ::pipe2(from, O_CLOEXEC) == 0);
  pid_ = ::fork();
  AQO_CHECK(pid_ >= 0);
  if (pid_ == 0) {
    // Only stdin and stdout survive exec, even if a pipe end was one.
    ::dup2(to[0], STDIN_FILENO);
    ::dup2(from[1], STDOUT_FILENO);
    ::fcntl(STDIN_FILENO, F_SETFD, 0);
    ::fcntl(STDOUT_FILENO, F_SETFD, 0);
    std::signal(SIGPIPE, SIG_DFL);
    ::execv(args[0], args.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(to[0]);
  ::close(from[1]);
  to_ = to[1];
  from_ = from[0];
}

bool ServerProcess::Send(const std::string& payload) {
  return SendBytes(LengthPrefix(payload.size())) && SendBytes(payload);
}

bool ServerProcess::SendBytes(std::string_view bytes) {
  return WriteAll(to_, bytes);
}

int ServerProcess::Receive(std::string* payload) {
  char prefix[4];
  int read = ReadExactly(from_, prefix, sizeof(prefix));
  if (read <= 0) return read;
  uint32_t len = DecodeLen(prefix);
  if (len > kMaxFrameBytes) return -1;
  payload->resize(len);
  return ReadExactly(from_, payload->data(), len) == 1 ? 1 : -1;
}

void ServerProcess::CloseInput() {
  if (to_ >= 0) ::close(to_);
  to_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

int ServerProcess::Wait() {
  CloseInput();
  if (from_ >= 0) ::close(from_);
  from_ = -1;
  while (pid_ > 0 && ::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status_;
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
