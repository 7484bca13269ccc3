#include "util/fd.h"

#include <unistd.h>

#include <cerrno>

namespace aqo {

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t wrote = ::write(fd, bytes.data(), bytes.size());
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0) return false;
    bytes.remove_prefix(static_cast<size_t>(wrote));
  }
  return true;
}

}  // namespace aqo
