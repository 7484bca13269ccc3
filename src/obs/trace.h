#ifndef AQO_OBS_TRACE_H_
#define AQO_OBS_TRACE_H_

// Chrome/Perfetto trace-event export: an opt-in recorder that turns
// TraceSpan scopes into "complete" events (`"ph":"X"`) and writes a
// chrome://tracing- / ui.perfetto.dev-loadable JSON file at close. Armed
// by `--trace-out=<path>` on every bench/tool (bench/bench_common.h
// RunLogSession reads the flag).
//
// Cost model: when disarmed — the always-on case — every instrumentation
// point is a single relaxed atomic flag load and a predictable branch
// (bench/micro's BM_TraceSpanDisarmed keeps this honest). When armed,
// events append to a per-thread buffer with no synchronization on the hot
// path; buffers are collected and serialized once at CloseGlobal.
//
// Threading: arm the recorder before spawning worker threads (bench
// mains construct RunLogSession before their ThreadPool) and close it
// after they quiesce (pools are destroyed before the session in every
// main). A thread registers its buffer lazily on its first armed event.
//
// See docs/observability.md for the walkthrough.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace aqo::obs {

class TraceEventRecorder {
 public:
  // True while a recorder is armed. The one check instrumentation points
  // pay when tracing is off.
  static bool Armed() {
    return armed_.load(std::memory_order_relaxed);
  }

  // Arms a file-backed global recorder (the JSON is written at
  // CloseGlobal); false when the file cannot be created. Replaces any
  // previously armed recorder.
  static bool OpenGlobal(const std::string& path);
  // Arms a recorder over a caller-owned stream (tests).
  static void AttachGlobal(std::ostream* out);
  // Serializes all buffered events as trace JSON, writes them out, and
  // disarms. No-op when disarmed.
  static void CloseGlobal();

  // Appends one complete event for the calling thread. `start`/`end` are
  // steady_clock points; `args_json` is either empty or a serialized JSON
  // object (e.g. {"cache_hit":false}). Callers must check Armed() first.
  static void Emit(std::string_view name, std::string_view cat,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end,
                   std::string args_json = std::string());

 private:
  static std::atomic<bool> armed_;
};

// RAII trace slice: emits one complete event covering its scope when the
// recorder is armed, and does nothing (one flag load) otherwise. The
// reductions tag theirs with category "span"; slices nest by time.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, std::string_view cat = "qo")
      : armed_(TraceEventRecorder::Armed()) {
    if (armed_) {
      name_ = name;
      cat_ = cat;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~TraceSpan() {
    if (armed_) {
      if (!args_.empty()) args_ += '}';
      TraceEventRecorder::Emit(name_, cat_, start_,
                               std::chrono::steady_clock::now(),
                               std::move(args_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // True when the slice will be emitted; lets callers skip annotation
  // work entirely while disarmed.
  bool armed() const { return armed_; }

  // Attach `"key":<raw>` to the event's args, where `raw` is already
  // valid JSON (a quoted string, number, or bool literal). No-ops while
  // disarmed.
  void AnnotateRaw(std::string_view key, std::string_view raw_json);
  void Annotate(std::string_view key, std::string_view string_value);
  void Annotate(std::string_view key, bool value) {
    AnnotateRaw(key, value ? "true" : "false");
  }
  void Annotate(std::string_view key, uint64_t value);

 private:
  bool armed_;
  std::string name_;
  std::string cat_;
  std::string args_;  // grows as {"k":v,"k":v and is closed in the dtor
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aqo::obs

#endif  // AQO_OBS_TRACE_H_
