// Minimal streaming JSON writer used by the telemetry exporters (Chrome
// trace files, metric snapshots, run manifests).
//
// Deliberately tiny: no DOM, no parsing — the writer appends tokens to a
// string and tracks just enough state (container stack + comma pending) to
// emit syntactically valid JSON. Keys and string values are escaped per
// RFC 8259; non-finite doubles (which JSON cannot represent) are emitted as
// the strings "inf" / "-inf" / "nan" so a consumer sees them explicitly
// instead of a parse error.
#pragma once

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace pi2m::telemetry {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Emits `"name":` — must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name) {
    comma();
    append_escaped(name);
    out_ += ':';
    pending_ = false;  // the upcoming value completes this member
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    comma();
    append_escaped(s);
    return done();
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    return done();
  }
  JsonWriter& value(double d) {
    comma();
    if (!std::isfinite(d)) {
      append_escaped(std::isnan(d) ? "nan" : (d > 0 ? "inf" : "-inf"));
    } else {
      // Shortest text that parses back to the same double.
      char buf[32];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, d).ptr);
    }
    return done();
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out_ += buf;
    return done();
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out_ += buf;
    return done();
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& null() {
    comma();
    out_ += "null";
    return done();
  }

  /// Splices a pre-rendered JSON value verbatim (one value's worth; the
  /// caller guarantees it is itself valid JSON). Lets composite documents
  /// embed already-serialized parts — e.g. a run manifest inside a serve
  /// protocol response — without re-parsing.
  JsonWriter& raw(std::string_view json) {
    comma();
    out_ += json;
    return done();
  }

  /// Shorthand for key(...).value(...).
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] bool complete() const { return stack_.empty() && !out_.empty(); }

  static std::string escaped(std::string_view s) {
    JsonWriter w;
    w.append_escaped(s);
    return w.out_;
  }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    stack_.push_back(c);
    pending_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    if (!stack_.empty()) stack_.pop_back();
    pending_ = true;
    return *this;
  }
  void comma() {
    if (pending_) out_ += ',';
    pending_ = false;
  }
  JsonWriter& done() {
    pending_ = true;
    return *this;
  }
  void append_escaped(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      switch (ch) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out_ += buf;
          } else {
            out_ += ch;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<char> stack_;
  bool pending_ = false;  ///< a sibling precedes the next element
};

}  // namespace pi2m::telemetry
