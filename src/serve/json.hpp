// Minimal JSON reader for the serving protocol (the write side reuses
// telemetry/json_writer.hpp).
//
// Recursive-descent parser producing a small DOM: null/bool/number/string/
// array/object. Scope is exactly what newline-delimited protocol messages
// need — full RFC 8259 value grammar, \uXXXX escapes decoded to UTF-8,
// depth-limited against adversarial nesting. Numbers are doubles (the
// protocol's integers — job ids, voxel counts — are well under 2^53).
//
// Also carries the base64 codec used to ship inline raw volumes through
// the text protocol.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pi2m::serve {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::Number), num_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::String), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::Array), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::Object),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  /// The fallback also for a number outside int64's range (no value).
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() && num_ > -9.2e18 && num_ < 9.2e18
               ? static_cast<std::int64_t>(num_)
               : fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? str_ : kEmpty;
  }
  [[nodiscard]] const JsonArray& as_array() const {
    static const JsonArray kEmpty;
    return is_array() ? *arr_ : kEmpty;
  }
  [[nodiscard]] const JsonObject& as_object() const {
    static const JsonObject kEmpty;
    return is_object() ? *obj_ : kEmpty;
  }

  /// Object member lookup; a null value for missing keys / non-objects, so
  /// lookups chain without null checks: v["job"]["delta"].as_double(1.0).
  [[nodiscard]] const JsonValue& operator[](std::string_view key) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Shared so JsonValue stays cheaply copyable (the DOM is read-only after
  // parse; protocol handlers pass sub-values around by value).
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parses one JSON document. Returns nullopt-style: on failure the result
/// is null and *error (when given) says what went wrong and where.
JsonValue json_parse(std::string_view text, std::string* error = nullptr);

/// RFC 4648 base64 (standard alphabet, padded).
std::string base64_encode(const void* data, std::size_t len);
/// Strict decode: rejects bad characters / bad padding. Empty input is an
/// empty (successful) result.
bool base64_decode(std::string_view text, std::vector<std::uint8_t>* out);

}  // namespace pi2m::serve
