#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace aqo::obs {

double JsonValue::AsDouble() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      AQO_CHECK(false) << "JsonValue::AsDouble on non-number";
      return 0.0;
  }
}

int64_t JsonValue::AsInt() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      return static_cast<int64_t>(uint_);
    case Kind::kDouble:
      return static_cast<int64_t>(double_);
    default:
      AQO_CHECK(false) << "JsonValue::AsInt on non-number";
      return 0;
  }
}

uint64_t JsonValue::AsUint() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      return static_cast<uint64_t>(double_);
    default:
      AQO_CHECK(false) << "JsonValue::AsUint on non-number";
      return 0;
  }
}

JsonValue& JsonValue::operator[](std::string_view key) {
  AQO_CHECK(kind_ == Kind::kObject) << "operator[] on non-object";
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), JsonValue());
  return members_.back().second;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Push(JsonValue v) {
  AQO_CHECK(kind_ == Kind::kArray) << "Push on non-array";
  items_.push_back(std::move(v));
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(double v, std::string* out) {
  // JSON has no NaN/Inf; map them to null.
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g is round-trip exact; trim to the shortest representation that
  // still round-trips to keep the logs readable.
  for (int prec = 6; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) {
      *out += shorter;
      return;
    }
  }
  *out += buf;
}

}  // namespace

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      *out += std::to_string(int_);
      break;
    case Kind::kUint:
      *out += std::to_string(uint_);
      break;
    case Kind::kDouble:
      AppendDouble(double_, out);
      break;
    case Kind::kString:
      AppendEscaped(string_, out);
      break;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(k, out);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace aqo::obs
