// Minimal JSON document model for the serve protocol (serve/protocol.h).
//
// The welfare-query service speaks JSON-lines: one request object in, one
// response object out, per line. This is the only JSON the repo needs, so
// the model is deliberately small: null/bool/number/string/array/object,
// an exact recursive-descent parser, and a writer whose output is a pure
// function of the document — objects preserve insertion order (no
// hash-order nondeterminism, rule UIC-L006), numbers format as `%lld`
// when integral and `%.17g` otherwise. That determinism is what lets the
// golden serve-session test pin whole response lines byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace uic {
namespace serve {

/// \brief A JSON value (tree-owning, cheap to move).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructs null.
  Json() = default;

  static Json Null() { return Json(); }
  static Json Bool(bool b) {
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = b;
    return j;
  }
  static Json Number(double v) {
    Json j;
    j.type_ = Type::kNumber;
    j.number_ = v;
    return j;
  }
  static Json Int(long long v) { return Number(static_cast<double>(v)); }
  static Json Str(std::string s) {
    Json j;
    j.type_ = Type::kString;
    j.string_ = std::move(s);
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads with a fallback for any other type.
  bool AsBool(bool def = false) const { return is_bool() ? bool_ : def; }
  double AsDouble(double def = 0.0) const {
    return is_number() ? number_ : def;
  }
  long long AsInt(long long def = 0) const {
    // Casting a double outside long long's range is UB; fold such values
    // (and NaN) to `def` so range-validating callers reject them cleanly.
    if (!is_number() || !(number_ >= -9223372036854775808.0 &&
                          number_ < 9223372036854775808.0)) {
      return def;
    }
    return static_cast<long long>(number_);
  }
  const std::string& AsString() const { return string_; }

  // --- array ------------------------------------------------------------
  void Append(Json v) { array_.push_back(std::move(v)); }
  size_t size() const {
    return is_array() ? array_.size() : members_.size();
  }
  const std::vector<Json>& items() const { return array_; }

  // --- object (insertion-ordered) ---------------------------------------
  /// Append `key` (or overwrite an existing one in place).
  Json& Set(const std::string& key, Json value);
  /// Member lookup; nullptr when absent (or when this is not an object).
  const Json* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Serialize on one line (no whitespace). Deterministic: member order
  /// is insertion order, numbers are %lld when integral else %.17g.
  std::string Dump() const;

  /// Parse exactly one JSON document (rejects trailing garbage). Depth is
  /// capped at 64 so a hostile request cannot overflow the stack.
  [[nodiscard]] static Result<Json> Parse(const std::string& text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Escape `s` as a JSON string literal, including the quotes.
std::string JsonEscape(const std::string& s);

/// The deterministic number formatting `Dump` uses (shared with code that
/// formats numbers into pre-escaped payloads).
std::string JsonNumberToString(double v);

// --- request-body field readers -------------------------------------------
// Shared by the serve verbs, the session builders and the sweep spec
// loader, so every body reports a bad field with the same wording.

/// String member `key` of `body`; `def` when absent, InvalidArgument
/// naming `key` for a non-string.
[[nodiscard]] Result<std::string> GetStringField(const Json& body,
                                                 const char* key,
                                                 const std::string& def = "");

/// Integer member in [lo, hi]; `def` when absent, InvalidArgument naming
/// `key` for a non-number, a fraction or an out-of-range value.
[[nodiscard]] Result<long long> GetIntField(const Json& body, const char* key,
                                            long long def, long long lo,
                                            long long hi);

/// Number member in [lo, hi]; `def` when absent, InvalidArgument naming
/// `key` otherwise.
[[nodiscard]] Result<double> GetNumberField(const Json& body, const char* key,
                                            double def, double lo, double hi);

}  // namespace serve
}  // namespace uic
