// The one declaration of every meshing-job knob. Each row of job_options()
// names a JobSpec field once: wire key (also the manifest config key), CLI
// flag, value kind (the accessor's type), valid range, help text, and
// whether a served job may set it. The functions below and serve/protocol's
// decode_job/encode_job drive the pi2m and pi2m_submit command lines, their
// --help, the wire and the manifest's config echo from it. Defaults stay
// JobSpec{}'s. A new knob is one field plus one row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "pipeline/mesh_job.hpp"
#include "telemetry/run_manifest.hpp"

namespace pi2m {

/// Cap on a job's worker threads from any surface: each is an OS thread,
/// so one request must not be able to exhaust the process ids.
inline constexpr int kMaxJobThreads = 256;

/// When the manifest's config echoes a row: always, when the value differs
/// from JobSpec{}'s, or when the job meshes a phantom.
enum class Echo : std::uint8_t { Never, Always, IfSet, WithPhantom };

/// Field accessors; the alternative a row holds is its value kind. A bool
/// is a value-less switch on the command line, a text field has its own
/// spelling (an enum name, the topology "CxS"), a list field repeats.
using IntField = int& (*)(JobSpec&);
using DoubleField = double& (*)(JobSpec&);
using BoolField = bool& (*)(JobSpec&);
using StringField = std::string& (*)(JobSpec&);
struct TextField {
  bool (*parse)(std::string_view text, JobSpec& spec);  ///< false: refused
  std::string (*format)(const JobSpec& spec);
};
struct ListField {
  std::vector<std::string>& (*field)(JobSpec&);
  const char* (*check)(std::string_view item);  ///< nullptr or why refused
};
using OptionField = std::variant<IntField, DoubleField, BoolField,
                                 StringField, TextField, ListField>;

struct JobOption {
  const char* key;      ///< wire and manifest key
  const char* flag;     ///< command-line flag
  const char* metavar;  ///< --help value placeholder (nullptr for switches)
  const char* help;     ///< may span lines
  const char* group;    ///< --help section
  double lo, hi;        ///< inclusive range of a number
  bool lo_open;         ///< lo itself is out of range
  bool wire;            ///< a served job may set it
  Echo echo;
  OptionField field;
};

/// The command line takes every row, the wire (the protocol's job object,
/// pi2m_submit) the rows marked `wire`.
enum class Surface : std::uint8_t { Cli, Wire };

std::span<const JobOption> job_options();

/// The row on `surface` whose flag ("--...") or key is `name`, or nullptr.
const JobOption* find_job_option(std::string_view name, Surface surface);

/// JobSpec{} as a served job starts out: threads 0 = the service's default.
JobSpec wire_job_defaults();

/// A scalar row's value (a list row has none).
telemetry::ConfigValue option_value(const JobOption& o, const JobSpec& spec);

/// Type- and range-checks `value` (numbers come as doubles) and stores it;
/// a list row appends. Returns "" or why the value was refused.
std::string set_option(const JobOption& o, const telemetry::ConfigValue& value,
                       JobSpec& spec);

/// The rows' number parse, for flags outside the table: the whole of
/// `text` must be a number in [lo, hi], and an integer when `integer`.
/// Stores it in `out`; returns "" or why it was refused.
std::string parse_number(std::string_view text, double lo, double hi,
                         bool integer, double& out);

bool same_option_value(const JobOption& o, const JobSpec& a,
                       const JobSpec& b);

/// If argv[i] is the flag of a row on `surface`, consumes it and its value
/// and returns true; a missing or refused value sets `error`. Returns
/// false, touching nothing, for any other argument.
bool parse_job_flag(int argc, const char* const* argv, int& i,
                    Surface surface, JobSpec& spec, std::string& error);

/// --help lines for the rows on `surface`, defaults taken from `defaults`.
std::string job_options_help(Surface surface, const JobSpec& defaults);

/// The manifest config echo: "input" (path, "phantom:NAME" or "inline")
/// plus each row its Echo rule selects.
void echo_job_options(const JobSpec& spec, telemetry::RunManifest& man);

}  // namespace pi2m
