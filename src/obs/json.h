// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// A minimal JSON document model for the observability layer: metrics
// exports, Chrome trace files, and structured run reports are all built
// from JsonValue trees and serialized with Dump(). Parse() exists so tests
// (and tools) can load emitted documents back and assert on structure; it
// accepts strict RFC 8259 JSON, nothing more.
#ifndef LPSGD_OBS_JSON_H_
#define LPSGD_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"

namespace lpsgd {
namespace obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  JsonValue(int value) : kind_(Kind::kInt), int_(value) {}     // NOLINT
  JsonValue(int64_t value) : kind_(Kind::kInt), int_(value) {} // NOLINT
  JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}  // NOLINT
  JsonValue(const char* value)                                       // NOLINT
      : kind_(Kind::kString), string_(value) {}
  JsonValue(std::string value)  // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}

  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  // Typed accessors; CHECK-fail on kind mismatch (numbers interconvert).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  // Array building (CHECK-fails unless kind is kArray).
  void Append(JsonValue value);
  size_t size() const;

  // Object building / lookup (CHECK-fails unless kind is kObject).
  void Set(std::string key, JsonValue value);
  bool Has(const std::string& key) const;
  // CHECK-fails when absent; use Has() first for optional fields.
  const JsonValue& At(const std::string& key) const;

  // Serializes to compact JSON; `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  // Strict JSON parse of the full input (trailing garbage is an error).
  [[nodiscard]] static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Escapes `text` as the inside of a JSON string literal (no quotes).
std::string JsonEscape(std::string_view text);

// Writes `doc` (Dump(1) plus a newline) to `path`, replacing the file.
[[nodiscard]] Status WriteJsonFile(const std::string& path,
                                   const JsonValue& doc);

}  // namespace obs
}  // namespace lpsgd

#endif  // LPSGD_OBS_JSON_H_
