#ifndef AQO_E2EBENCH_TRACE_H_
#define AQO_E2EBENCH_TRACE_H_

// In-memory span recorder for the traced replays, plus the small JSON and
// timing helpers the benchkit modes share.
//
// A span records its name, start, end, parent span and the request or
// table cell it belongs to. Spans are opened around calls into the
// program's layers from the benchmark's own code, stay in memory, and are
// written out when the run ends. A layer's self time is its span minus
// the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the span list, -1 for a root
  int64_t op;      // request index or table cell id
};

struct LayerTotal {
  int64_t self_ns = 0;
  int64_t calls = 0;
};

// A null Tracer* turns tracing off: its scopes cost one branch.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t op) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Begin(name, op);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  // Self time and call count per span name.
  std::map<std::string, LayerTotal> SelfTimes() const;

  // Tab-separated: op, name, parent, start_ns, end_ns (one span a line).
  bool Write(const std::string& path) const;

 private:
  int32_t Begin(const char* name, int64_t op);
  void End(int32_t index);

  int32_t open_ = -1;
  std::vector<SpanRecord> spans_;
};

// Flat JSON object text, keys in insertion order. The benchmark writes its
// own JSON so that its output never depends on the program's obs/json.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, uint64_t value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  JsonObject& Add(const std::string& key, const std::vector<double>& values);
  JsonObject& Add(const std::string& key,
                  const std::vector<std::string>& values);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& s);

// {"<span name>": [self_ns, calls], ...}
std::string LayersJson(const std::map<std::string, LayerTotal>& layers);

}  // namespace e2ebench

#endif  // AQO_E2EBENCH_TRACE_H_
