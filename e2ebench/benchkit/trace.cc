#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2ebench {

int32_t Tracer::Begin(const char* name, int64_t op) {
  spans_.push_back(SpanRecord{name, NowNs(), 0, open_, op});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t index) {
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::map<std::string, LayerTotal> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTotal> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotal& total = out[spans_[i].name];
    total.self_ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    ++total.calls;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "op\tname\tparent\tstart_ns\tend_ns\n";
  for (const SpanRecord& span : spans_) {
    out << span.op << "\t" << span.name << "\t" << span.parent << "\t"
        << span.start_ns << "\t" << span.end_ns << "\n";
  }
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += Number(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += Number(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::vector<std::string>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += JsonString(values[i]);
  }
  body_ += "]";
  return *this;
}

std::string LayersJson(const std::map<std::string, LayerTotal>& layers) {
  JsonObject out;
  for (const auto& [name, total] : layers) {
    std::string pair = "[";
    pair += std::to_string(total.self_ns);
    pair += ", ";
    pair += std::to_string(total.calls);
    pair += "]";
    out.AddRaw(name, pair);
  }
  return out.str();
}

}  // namespace e2ebench
