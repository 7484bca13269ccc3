#include "tests/json_reader.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>
#include <utility>

namespace aqo {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<obs::JsonValue> Run() {
    std::optional<obs::JsonValue> v = ParseValue();
    if (!v) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // Only BMP codepoints we emit ourselves (control chars); encode
            // as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<obs::JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return std::nullopt;
    if (!is_double) {
      int64_t iv = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && p == token.data() + token.size()) {
        return obs::JsonValue(iv);
      }
      uint64_t uv = 0;
      auto [pu, ecu] =
          std::from_chars(token.data(), token.data() + token.size(), uv);
      if (ecu == std::errc() && pu == token.data() + token.size()) {
        return obs::JsonValue(uv);
      }
      // Out-of-range integer: fall through to double.
    }
    double dv = std::strtod(std::string(token).c_str(), nullptr);
    return obs::JsonValue(dv);
  }

  std::optional<obs::JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      obs::JsonValue obj = obs::JsonValue::Object();
      SkipSpace();
      if (Consume('}')) return obj;
      while (true) {
        SkipSpace();
        std::optional<std::string> key = ParseString();
        if (!key || !Consume(':')) return std::nullopt;
        std::optional<obs::JsonValue> v = ParseValue();
        if (!v) return std::nullopt;
        obj[*key] = std::move(*v);
        if (Consume(',')) continue;
        if (Consume('}')) return obj;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      obs::JsonValue arr = obs::JsonValue::Array();
      SkipSpace();
      if (Consume(']')) return arr;
      while (true) {
        std::optional<obs::JsonValue> v = ParseValue();
        if (!v) return std::nullopt;
        arr.Push(std::move(*v));
        if (Consume(',')) continue;
        if (Consume(']')) return arr;
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> s = ParseString();
      if (!s) return std::nullopt;
      return obs::JsonValue(std::move(*s));
    }
    if (ConsumeLiteral("true")) return obs::JsonValue(true);
    if (ConsumeLiteral("false")) return obs::JsonValue(false);
    if (ConsumeLiteral("null")) return obs::JsonValue();
    return ParseNumber();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace



std::optional<obs::JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace aqo
