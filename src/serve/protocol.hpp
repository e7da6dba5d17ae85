// Wire protocol of the meshing daemon: newline-delimited JSON over a local
// stream socket. One request object per line, one response object per
// line, strictly request/response (no server push).
//
// Requests ({"op": ...}):
//   {"op":"ping"}
//   {"op":"submit","priority":"high|normal|low","job":{...}}
//   {"op":"status","id":N}
//   {"op":"cancel","id":N}
//   {"op":"result","id":N}
//   {"op":"stats"}
//   {"op":"shutdown","mode":"drain|now"}
//
// Job object (all knobs optional except one input):
//   "input": "/path/vol.mha"            — or —
//   "phantom": "ball", "size": 64       — or —
//   "volume": {"nx":..,"ny":..,"nz":..,
//              "spacing":[sx,sy,sz], "origin":[ox,oy,oz],
//              "labels_b64": "<base64 of nx*ny*nz label bytes>"}
// plus the `wire` rows of the table in pipeline/job_options.cpp, each a
// JSON value of its row's kind; a wrong type, an out-of-range value or a
// key not in the table is BAD_REQUEST.
//
// Responses always carry "ok". Failures carry a stable machine-readable
// "code" (kRejectedOverload, kDraining, kNotFound, ...) plus a
// human-readable "error". See DESIGN.md "Serving architecture" for the
// job lifecycle these ops drive.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pipeline/job_options.hpp"
#include "pipeline/mesh_job.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"

namespace pi2m::serve {

/// Stable failure codes (the protocol's contract; never renumber/rename).
inline constexpr const char* kRejectedOverload = "REJECTED_OVERLOAD";
inline constexpr const char* kDraining = "DRAINING";
inline constexpr const char* kNotFound = "NOT_FOUND";
inline constexpr const char* kNotFinished = "NOT_FINISHED";
inline constexpr const char* kBadRequest = "BAD_REQUEST";
inline constexpr const char* kInternal = "INTERNAL";

const char* priority_name(Priority p);
/// "high"/"normal"/"low"; anything else fails.
bool parse_priority(std::string_view name, Priority* out);

struct Request {
  enum class Op {
    Invalid,
    Ping,
    Submit,
    Status,
    Cancel,
    Result,
    Stats,
    Shutdown,
  };
  Op op = Op::Invalid;
  std::string error;        ///< why the request is Invalid
  std::uint64_t id = 0;     ///< status/cancel/result
  Priority priority = Priority::Normal;  ///< submit
  JobSpec job;              ///< submit
  bool drain = true;        ///< shutdown: drain (true) or now (false)
};

/// Parses one request line. Never throws; malformed input yields
/// Op::Invalid with `error` set.
Request parse_request(std::string_view line);

/// Decodes the "job" object into a JobSpec, starting from
/// wire_job_defaults(): `threads` stays 0 when absent so the service can
/// apply its configured per-job default. On failure *spec is untouched.
bool decode_job(const JsonValue& j, JobSpec* spec, std::string* error);

/// The job object decode_job reads back as `spec`: every wire row whose
/// value differs from wire_job_defaults(). The inline volume is not sent.
std::string encode_job(const JobSpec& spec);

/// {"ok":false,"code":code,"error":detail}
std::string error_response(const char* code, const std::string& detail);

}  // namespace pi2m::serve
