#ifndef AQO_UTIL_CHECK_H_
#define AQO_UTIL_CHECK_H_

// Lightweight runtime assertion macros used across the library.
//
// AQO_CHECK(cond) aborts the process with a diagnostic when `cond` is false,
// and accepts a streamed message: AQO_CHECK(x > 0) << "x was " << x;
// It is always on (also in release builds): the library manipulates
// combinatorial constructions whose invariants, once violated, silently
// produce wrong reductions, so we prefer a hard stop.
// AQO_DCHECK(cond) compiles away in NDEBUG builds; use it on hot paths.

#include <cstdlib>
#include <sstream>
#include <string>

// Restrict-qualified pointer hint for hot loops (qo/fast_eval.cc and
// friends): promises the compiler that the pointee is not aliased by any
// other pointer in scope, unlocking vectorization of loads/stores that
// would otherwise be ordered conservatively. No-op on compilers without
// the extension.
#if defined(__GNUC__) || defined(__clang__)
#define AQO_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define AQO_RESTRICT __restrict
#else
#define AQO_RESTRICT
#endif

namespace aqo::internal {

// Prints `file:line: check failed: expr[: message]` to stderr and aborts.
[[noreturn]] void CheckFail(const char* expr, const char* file, int line,
                            const std::string& message);

// Stream-collecting helper that lets AQO_CHECK accept `<<` style messages.
// The process aborts when the temporary is destroyed at the end of the full
// expression.
class CheckMessage {
 public:
  CheckMessage(const char* expr, const char* file, int line)
      : expr_(expr), file_(file), line_(line) {}

  CheckMessage(const CheckMessage&) = delete;
  CheckMessage& operator=(const CheckMessage&) = delete;

  template <typename T>
  CheckMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  [[noreturn]] ~CheckMessage() { CheckFail(expr_, file_, line_, stream_.str()); }

 private:
  const char* expr_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Turns the CheckMessage expression into `void` so the conditional operator
// in AQO_CHECK type-checks. `&` binds looser than `<<`, so streamed message
// parts attach to the CheckMessage first.
struct Voidify {
  void operator&(const CheckMessage&) {}
};

}  // namespace aqo::internal

#define AQO_CHECK(cond)              \
  (cond) ? (void)0                   \
         : ::aqo::internal::Voidify() & \
               ::aqo::internal::CheckMessage(#cond, __FILE__, __LINE__)

#define AQO_CHECK_EQ(a, b) AQO_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define AQO_DCHECK(cond) AQO_CHECK(true)
#else
#define AQO_DCHECK(cond) AQO_CHECK(cond)
#endif

#endif  // AQO_UTIL_CHECK_H_
