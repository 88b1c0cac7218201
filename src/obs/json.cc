// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.h"
#include "base/strings.h"

namespace lpsgd {
namespace obs {

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  CHECK(kind_ == Kind::kBool) << "JsonValue is not a bool";
  return bool_;
}

int64_t JsonValue::AsInt() const {
  if (kind_ == Kind::kDouble) return static_cast<int64_t>(double_);
  CHECK(kind_ == Kind::kInt) << "JsonValue is not a number";
  return int_;
}

double JsonValue::AsDouble() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  CHECK(kind_ == Kind::kDouble) << "JsonValue is not a number";
  return double_;
}

const std::string& JsonValue::AsString() const {
  CHECK(kind_ == Kind::kString) << "JsonValue is not a string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  CHECK(kind_ == Kind::kArray) << "JsonValue is not an array";
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  CHECK(kind_ == Kind::kObject) << "JsonValue is not an object";
  return object_;
}

void JsonValue::Append(JsonValue value) {
  CHECK(kind_ == Kind::kArray) << "Append on non-array JsonValue";
  array_.push_back(std::move(value));
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

void JsonValue::Set(std::string key, JsonValue value) {
  CHECK(kind_ == Kind::kObject) << "Set on non-object JsonValue";
  object_[std::move(key)] = std::move(value);
}

bool JsonValue::Has(const std::string& key) const {
  CHECK(kind_ == Kind::kObject) << "Has on non-object JsonValue";
  return object_.find(key) != object_.end();
}

const JsonValue& JsonValue::At(const std::string& key) const {
  CHECK(kind_ == Kind::kObject) << "At on non-object JsonValue";
  auto it = object_.find(key);
  CHECK(it != object_.end()) << "missing JSON key: " << key;
  return it->second;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(std::string* out, double value) {
  // JSON has no inf/NaN; emit null so the document stays parseable.
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void Indent(std::string* out, int indent, int depth) {
  out->push_back('\n');
  out->append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kInt:
      *out += StrCat(int_);
      return;
    case Kind::kDouble:
      AppendNumber(out, double_);
      return;
    case Kind::kString:
      out->push_back('"');
      *out += JsonEscape(string_);
      out->push_back('"');
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        if (indent > 0) Indent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (indent > 0 && !array_.empty()) Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        if (indent > 0) Indent(out, indent, depth + 1);
        out->push_back('"');
        *out += JsonEscape(key);
        *out += indent > 0 ? "\": " : "\":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (indent > 0 && !object_.empty()) Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Run() {
    LPSGD_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 200;

  Status Error(std::string_view message) const {
    return InvalidArgumentError(
        StrCat("JSON parse error at offset ", pos_, ": ", message));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      LPSGD_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue(true);
    if (ConsumeWord("false")) return JsonValue(false);
    if (ConsumeWord("null")) return JsonValue();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue obj = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return obj;
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      LPSGD_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      LPSGD_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue arr = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return arr;
    while (true) {
      LPSGD_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
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
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs not combined;
          // metric/trace names are ASCII in practice).
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
          return Error("unknown escape character");
      }
    }
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a JSON value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (!is_double) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue(static_cast<int64_t>(v));
      }
      // Fall through to double on overflow.
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return Error("malformed number");
    }
    return JsonValue(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

Status WriteJsonFile(const std::string& path, const JsonValue& doc) {
  std::ofstream file(path);
  if (!file) {
    return InvalidArgumentError(StrCat("cannot open ", path, " for writing"));
  }
  file << doc.Dump(1) << "\n";
  if (!file.good()) return InternalError(StrCat("failed writing ", path));
  return OkStatus();
}

}  // namespace obs
}  // namespace lpsgd
