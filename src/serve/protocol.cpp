#include "serve/protocol.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "telemetry/json_writer.hpp"

namespace pi2m::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::High: return "high";
    case Priority::Normal: return "normal";
    case Priority::Low: return "low";
  }
  return "?";
}

bool parse_priority(std::string_view name, Priority* out) {
  if (name == "high") {
    *out = Priority::High;
  } else if (name == "normal") {
    *out = Priority::Normal;
  } else if (name == "low") {
    *out = Priority::Low;
  } else {
    return false;
  }
  return true;
}

namespace {

bool decode_volume(const JsonValue& v, JobSpec* spec, std::string* error) {
  // Checked as doubles: a huge or fractional JSON number must not wrap or
  // truncate into range on its way to int.
  const auto dim = [&](const char* key) {
    const double d = v[key].as_double();
    return d >= 1 && d <= 4096 && d == std::trunc(d) ? static_cast<int>(d) : 0;
  };
  const int nx = dim("nx");
  const int ny = dim("ny");
  const int nz = dim("nz");
  if (nx < 1 || ny < 1 || nz < 1) {
    *error = "volume: bad dimensions";
    return false;
  }
  Vec3 spacing{1, 1, 1};
  Vec3 origin{0, 0, 0};
  const JsonArray& sp = v["spacing"].as_array();
  if (sp.size() == 3) {
    spacing = {sp[0].as_double(1), sp[1].as_double(1), sp[2].as_double(1)};
    if (spacing.x <= 0 || spacing.y <= 0 || spacing.z <= 0) {
      *error = "volume: spacing must be positive";
      return false;
    }
  }
  const JsonArray& org = v["origin"].as_array();
  if (org.size() == 3) {
    origin = {org[0].as_double(), org[1].as_double(), org[2].as_double()};
  }
  std::vector<std::uint8_t> labels;
  if (!base64_decode(v["labels_b64"].as_string(), &labels)) {
    *error = "volume: labels_b64 is not valid base64";
    return false;
  }
  const std::size_t want = static_cast<std::size_t>(nx) * ny * nz;
  if (labels.size() != want) {
    *error = "volume: labels_b64 decodes to " +
             std::to_string(labels.size()) + " bytes, want " +
             std::to_string(want);
    return false;
  }
  auto img = std::make_shared<LabeledImage3D>(nx, ny, nz, spacing, origin);
  static_assert(sizeof(Label) == 1, "wire format ships one byte per voxel");
  img->raw().assign(labels.begin(), labels.end());
  spec->inline_image = std::move(img);
  return true;
}

/// One job-object member through its option row: an array for a list
/// row, one number, bool or string otherwise.
std::string decode_option(const JobOption& o, const JsonValue& v,
                          JobSpec& spec) {
  if (std::holds_alternative<ListField>(o.field) != v.is_array()) {
    return v.is_array() ? "want a single value" : "want an array";
  }
  for (const JsonValue& item : v.is_array() ? v.as_array() : JsonArray{v}) {
    if (!item.is_number() && !item.is_bool() && !item.is_string()) {
      return "want a number, bool or string";
    }
    const std::string why = set_option(
        o,
        item.is_number() ? telemetry::ConfigValue(item.as_double())
        : item.is_bool() ? telemetry::ConfigValue(item.as_bool())
                         : telemetry::ConfigValue(item.as_string()),
        spec);
    if (!why.empty()) return why;
  }
  return "";
}

}  // namespace

bool decode_job(const JsonValue& j, JobSpec* spec, std::string* error) {
  if (!j.is_object()) {
    *error = "job must be an object";
    return false;
  }
  JobSpec s = wire_job_defaults();
  for (const auto& [key, v] : j.as_object()) {
    if (key == "volume") {
      if (!v.is_object()) {
        *error = "volume must be an object";
        return false;
      }
      if (!decode_volume(v, &s, error)) return false;
      continue;
    }
    const JobOption* o = find_job_option(key, Surface::Wire);
    if (o == nullptr) {
      *error = "unknown job key '" + key + "'";
      return false;
    }
    const std::string why = decode_option(*o, v, s);
    if (!why.empty()) {
      *error = key + ": " + why;
      return false;
    }
  }
  const int inputs = int{!s.input_path.empty()} + int{!s.phantom.empty()} +
                     int{s.inline_image != nullptr};
  if (inputs != 1) {
    *error = "job needs exactly one of input/phantom/volume";
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::string encode_job(const JobSpec& spec) {
  static const JobSpec defaults = wire_job_defaults();
  telemetry::JsonWriter w;
  w.begin_object();
  for (const JobOption& o : job_options()) {
    if (!o.wire || same_option_value(o, spec, defaults)) continue;
    w.key(o.key);
    if (const auto* l = std::get_if<ListField>(&o.field)) {
      w.begin_array();
      for (const std::string& v : l->field(const_cast<JobSpec&>(spec))) {
        w.value(v);
      }
      w.end_array();
    } else {
      std::visit([&](const auto& v) { w.value(v); }, option_value(o, spec));
    }
  }
  w.end_object();
  return w.str();
}

Request parse_request(std::string_view line) {
  Request req;
  std::string perr;
  const JsonValue root = json_parse(line, &perr);
  if (!root.is_object()) {
    req.error = perr.empty() ? "request must be a JSON object" : perr;
    return req;
  }
  const std::string& op = root["op"].as_string();
  if (op == "ping") {
    req.op = Request::Op::Ping;
  } else if (op == "submit") {
    if (root["priority"].is_string() &&
        !parse_priority(root["priority"].as_string(), &req.priority)) {
      req.error = "unknown priority '" + root["priority"].as_string() + "'";
      return req;
    }
    if (!decode_job(root["job"], &req.job, &req.error)) return req;
    req.op = Request::Op::Submit;
  } else if (op == "status" || op == "cancel" || op == "result") {
    if (root["id"].as_int(-1) < 0) {
      req.error = "missing or bad 'id'";
      return req;
    }
    req.id = static_cast<std::uint64_t>(root["id"].as_int());
    req.op = op == "status"   ? Request::Op::Status
             : op == "cancel" ? Request::Op::Cancel
                              : Request::Op::Result;
  } else if (op == "stats") {
    req.op = Request::Op::Stats;
  } else if (op == "shutdown") {
    const std::string& mode = root["mode"].as_string();
    if (!mode.empty() && mode != "drain" && mode != "now") {
      req.error = "shutdown mode must be 'drain' or 'now'";
      return req;
    }
    req.drain = mode != "now";
    req.op = Request::Op::Shutdown;
  } else {
    req.error = op.empty() ? "missing 'op'" : "unknown op '" + op + "'";
  }
  return req;
}

std::string error_response(const char* code, const std::string& detail) {
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("ok", false)
      .kv("code", code)
      .kv("error", detail)
      .end_object();
  return w.str();
}

}  // namespace pi2m::serve
