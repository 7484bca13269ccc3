#ifndef AQO_UTIL_FD_H_
#define AQO_UTIL_FD_H_

// Blocking writes to a file descriptor, shared by the plan-cache journal
// (qo/persist.h) and the server client (io/framing.h).

#include <string_view>

namespace aqo {

// Writes all of `bytes` to `fd`, retrying short writes and EINTR; false
// on any other error (errno says which).
bool WriteAll(int fd, std::string_view bytes);

}  // namespace aqo

#endif  // AQO_UTIL_FD_H_
