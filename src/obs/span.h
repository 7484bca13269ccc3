#ifndef AQO_OBS_SPAN_H_
#define AQO_OBS_SPAN_H_

// Scoped timing spans that nest and aggregate into a per-thread profile
// tree. A Span covers one lexical scope; same-named spans under the same
// parent merge into a single ProfileNode accumulating total time and hit
// count, so loops produce an aggregate instead of one node per iteration.
//
//   {
//     obs::Span reduce("compose.sat_to_qon");
//     { obs::Span s("compose.solve_sat"); ... }
//     { obs::Span s("compose.maxsat"); ... }
//   }
//
// yields
//
//   compose.sat_to_qon (1x, 12.3ms)
//     compose.solve_sat (1x, 4.0ms)
//     compose.maxsat    (1x, 7.9ms)
//
// The tree is thread-local (no synchronization on the timing path). The
// run-log layer snapshots and resets it around each measured invocation.

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aqo::obs {

struct ProfileNode {
  std::string name;
  double total_seconds = 0.0;
  uint64_t count = 0;  // completed spans aggregated into this node
  std::vector<std::unique_ptr<ProfileNode>> children;

  // Find-or-create the child named `name` (linear scan: fan-out is small).
  ProfileNode* Child(std::string_view child_name);
};

// Per-thread profile tree. root() is an unnamed node holding top-level
// spans; current() is the innermost open span (or root).
class Profiler {
 public:
  static Profiler& Get();  // thread-local instance

  ProfileNode* root() { return &root_; }
  ProfileNode* current() { return current_; }

  // Discards all recorded spans. Must not be called with spans open.
  void Reset();

 private:
  friend class Span;
  Profiler() : current_(&root_) {}
  ProfileNode root_;
  ProfileNode* current_;
};

// RAII span: opens on construction, aggregates elapsed wall time into the
// profile tree on destruction.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Elapsed seconds so far (the span is still open).
  double Elapsed() const;

 private:
  ProfileNode* node_;
  ProfileNode* parent_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aqo::obs

#endif  // AQO_OBS_SPAN_H_
