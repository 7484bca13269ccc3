#ifndef AQO_OBS_JSON_H_
#define AQO_OBS_JSON_H_

// Minimal JSON document model for the run-log emitter: enough to
// serialize telemetry records (the tests' reader, tests/json_reader.h,
// re-parses every emitted line into this model). Not a general-purpose
// JSON library: numbers are int64/uint64/double, no \uXXXX escapes
// beyond pass-through of ASCII, objects keep insertion order.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aqo::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  // Objects preserve insertion order so records serialize with a stable,
  // human-friendly key layout ("type" first, "counters" last).
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(const char* v) : kind_(Kind::kString), string_(v) {}
  JsonValue(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  JsonValue(std::string_view v) : kind_(Kind::kString), string_(v) {}

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool AsBool() const { return bool_; }
  double AsDouble() const;
  int64_t AsInt() const;
  uint64_t AsUint() const;
  const std::string& AsString() const { return string_; }

  // Object access. operator[] find-or-inserts (must be an object).
  JsonValue& operator[](std::string_view key);
  const JsonValue* Find(std::string_view key) const;  // nullptr when absent
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  const std::vector<Member>& members() const { return members_; }

  // Array access.
  void Push(JsonValue v);
  const std::vector<JsonValue>& items() const { return items_; }
  size_t size() const;

  // Compact single-line serialization (newline-free: JSONL-safe).
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace aqo::obs

#endif  // AQO_OBS_JSON_H_
