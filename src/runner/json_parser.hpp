// Minimal JSON parser + serializer, the read-side counterpart of
// JsonReport: enough JSON to load the reports the tools emit (and any
// document made of objects/arrays/strings/numbers/bools/null) without an
// external dependency. Used to read suite files (scenario/suite.cpp) and
// perfbench's traces, to write flexnet_lint's report, and by the tests to
// round-trip JsonReport::to_json() and read the tools' outputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flexnet {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered; later duplicates shadow earlier ones in find().
  std::vector<std::pair<std::string, JsonValue>> object;

  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }

  /// Last binding of `key` in an object; nullptr when absent or not an
  /// object.
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Convenience accessors with defaults for optional report fields.
  double number_or(double fallback) const;
  std::string string_or(const std::string& fallback) const;

  /// Appends to an object (no dedup — mirrors document order).
  void set(const std::string& key, JsonValue value);
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Returns false and sets `*error` (with a byte
/// offset) on malformed input. NaN/Infinity are not JSON and are rejected,
/// matching json_number's null-encoding on the write side.
bool json_parse(const std::string& text, JsonValue* out, std::string* error);

/// Serializes with the same dialect JsonReport emits: json_number doubles
/// (integral values render without exponent/fraction), json_escape'd
/// strings. `indent` < 0 gives a compact single line; >= 0 pretty-prints
/// with that starting depth of two-space indentation.
std::string json_serialize(const JsonValue& value, int indent = -1);

}  // namespace flexnet
