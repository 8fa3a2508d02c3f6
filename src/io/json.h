// Minimal JSON value, parser and serializer (RFC 8259 subset).
//
// mecsched has no third-party dependencies, so scenario/assignment
// serialization (io/codec.h) and the CLI sit on this hand-rolled JSON
// module. Supported: null, bool, double numbers, strings with the standard
// escapes (\uXXXX decodes the BMP; surrogate pairs are accepted), arrays,
// objects. Not supported (by design): comments, NaN/Infinity, duplicate
// key detection (last one wins, as in most parsers).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"

namespace mecsched::io {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps serialization deterministic (sorted keys).
using JsonObject = std::map<std::string, Json>;

// Thrown on malformed input text or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::size_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Typed access; throws JsonError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  // A number used as an index or count: throws JsonError unless it is a
  // non-negative integer no larger than 2^53 (beyond that a double no
  // longer holds every integer, and no index here comes close).
  std::size_t as_index() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  // Object field access; throws JsonError if absent or not an object.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  // Field with a default when the key is absent.
  double number_or(const std::string& key, double fallback) const;
  std::size_t index_or(const std::string& key, std::size_t fallback) const;

  // Compact serialization (no whitespace). `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  // Parses a complete JSON document; trailing garbage is an error.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace mecsched::io
