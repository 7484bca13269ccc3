#ifndef AQO_UTIL_FAULT_INJECTION_H_
#define AQO_UTIL_FAULT_INJECTION_H_

// Deterministic fault injection for robustness tests. The injector is
// compiled in always but inert unless a test arms it, so production
// binaries pay one relaxed atomic load per probe site and nothing else.
//
// Faults are keyed by (site, ordinal): the probe site names the
// operation class ("service.item", "plan_cache.insert", "io.parse") and
// the ordinal is supplied by the caller from its own deterministic
// numbering (batch item index, insert sequence number, parse count).
// Because the ordinal comes from program structure rather than thread
// arrival order, "fail the k-th task" reproduces bit-identically across
// thread counts and schedules.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace aqo {

// Thrown by FaultInjector::MaybeThrow at an armed site. Derives from
// std::runtime_error so generic catch paths treat an injected fault
// exactly like a real one.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

// Process-wide singleton. Arm/Disarm are test-only entry points; probe
// sites call ShouldFail/MaybeThrow. One fault spec is active at a time —
// tests arm, exercise, disarm.
class FaultInjector {
 public:
  // Passing kAnyOrdinal to Arm matches the next probe at the site
  // regardless of its ordinal — for sites whose counters are process-wide
  // and therefore unknowable to an individual test (e.g. "io.parse").
  static constexpr uint64_t kAnyOrdinal = ~0ull;

  static FaultInjector& Get();

  // Arms the injector: the next `times` probes at `site` whose ordinal
  // equals `ordinal` fail. `times` defaults to 1 (fail once; a later probe
  // of the same ordinal succeeds). `times` >= 2 fails that many matching
  // probes, e.g. a persistence write and the breaker's later probe.
  void Arm(const std::string& site, uint64_t ordinal, int times = 1);

  // Returns to the inert state. Always safe to call.
  void Disarm();

  // True while a fault spec is armed (even if all its shots are spent).
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // True when (site, ordinal) matches the armed spec and shots remain;
  // consumes one shot. Inert fast path: one relaxed load, no locks.
  bool ShouldFail(const char* site, uint64_t ordinal);

  // Throws FaultInjectedError when ShouldFail would return true.
  void MaybeThrow(const char* site, uint64_t ordinal);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::string site_;
  uint64_t ordinal_ = 0;
  int remaining_ = 0;
};

}  // namespace aqo

#endif  // AQO_UTIL_FAULT_INJECTION_H_
