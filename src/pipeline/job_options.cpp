#include "pipeline/job_options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>

#include "support/common.hpp"

namespace pi2m {

namespace {

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// Whole-string parse: "16x", "1.5x", " 3" and "" are refused.
template <class T>
bool parse_whole(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size() && !s.empty();
}

std::string number_text(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// "" or why `v` is refused by the range [lo, hi] (lo excluded when
/// `lo_open`) or, for an integer field, for having a fraction.
std::string range_error(double v, double lo, double hi, bool lo_open,
                        bool integer) {
  if (integer && v != std::trunc(v)) {
    return number_text(v) + " is not an integer";
  }
  if (!std::isfinite(v) || v < lo || v > hi || (lo_open && v == lo)) {
    return number_text(v) + " is out of range " + (lo_open ? "(" : "[") +
           number_text(lo) + ", " + number_text(hi) +
           (std::isinf(hi) ? ")" : "]");
  }
  return "";
}

/// A text field over one of MeshingOptions' enums and its name/parse pair.
template <auto Member, auto Name, auto Parse>
constexpr TextField enum_field() {
  return {[](std::string_view v, JobSpec& s) {
            const auto k = Parse(v);
            if (k) s.mesh.*Member = *k;
            return k.has_value();
          },
          [](const JobSpec& s) -> std::string { return Name(s.mesh.*Member); }};
}

/// "auto", or "CxS": C cores per socket, S sockets per blade.
bool parse_topology(std::string_view v, JobSpec& s) {
  TopologySpec t;
  const std::size_t x = v.find('x');
  const bool cxs = x != std::string_view::npos &&
                   parse_whole(v.substr(0, x), t.cores_per_socket) &&
                   parse_whole(v.substr(x + 1), t.sockets_per_blade) &&
                   t.cores_per_socket >= 1 && t.sockets_per_blade >= 1;
  if (cxs) s.mesh.topology = t;
  if (cxs || v == "auto") s.mesh.topology_auto = !cxs;
  return cxs || v == "auto";
}

std::string format_topology(const JobSpec& s) {
  const TopologySpec& t = s.mesh.topology;
  return s.mesh.topology_auto ? "auto"
                              : std::to_string(t.cores_per_socket) + "x" +
                                    std::to_string(t.sockets_per_blade);
}

const char* check_output_format(std::string_view path) {
  for (const char* ext : {".vtk", ".off", ".mesh", ".stl", ".p2m"}) {
    if (path.ends_with(ext)) return nullptr;
  }
  return "unknown output format (want .vtk|.off|.mesh|.stl|.p2m)";
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kInput = "input (one of --input/--phantom)";
constexpr const char* kMeshing = "meshing";
constexpr const char* kScheduler = "scheduler";
constexpr const char* kOutput = "post-processing / output";

// Columns: key, flag, metavar, help, group, lo, hi, lo_open, wire, echo,
// field.
#define PI2M_FIELD(member) [](JobSpec& s) -> auto& { return s.member; }
// clang-format off
const JobOption kRows[] = {
    {"input", "--input", "FILE.mha",
     "segmented MetaImage (MET_UCHAR/USHORT, LOCAL)",
     kInput, 0, 0, false, true, Echo::Never, PI2M_FIELD(input_path)},
    {"phantom", "--phantom", "NAME",
     "ball|shells|abdominal|knee|head_neck|vessels\n"
     "|ellipsoid|thick_shell (volume-dominated)",
     kInput, 0, 0, false, true, Echo::Never, PI2M_FIELD(phantom)},
    {"size", "--size", "N", "phantom grid size",
     kInput, 2, 4096, false, true, Echo::WithPhantom, PI2M_FIELD(phantom_size)},
    {"downsample", "--downsample", "F",
     "majority-vote downsample by integer factor",
     kInput, 1, 4096, false, true, Echo::IfSet, PI2M_FIELD(downsample)},
    {"crop_pad", "--crop-foreground", "PAD",
     "crop to the foreground bounding box + PAD\nvoxels; -1 = off",
     kInput, -1, 4096, false, true, Echo::IfSet, PI2M_FIELD(crop_pad)},

    {"delta", "--delta", "D", "surface sample spacing, world units",
     kMeshing, 0, kInf, true, true, Echo::Always, PI2M_FIELD(mesh.delta)},
    {"rho", "--rho", "R", "radius-edge bound",
     kMeshing, 0, kInf, true, true, Echo::Always,
     PI2M_FIELD(mesh.radius_edge_bound)},
    {"facet_angle", "--facet-angle", "A", "min boundary planar angle, deg",
     kMeshing, 0, 60, false, true, Echo::Always,
     PI2M_FIELD(mesh.min_planar_angle_deg)},
    {"uniform_size", "--uniform-size", "S", "uniform sizing field (R5); 0 = off",
     kMeshing, 0, kInf, false, true, Echo::IfSet, PI2M_FIELD(uniform_size)},
    {"interior", "--interior", "NAME",
     "lattice (BCC template bulk + Delaunay skin)\n"
     "| delaunay (refine everywhere; the\n"
     "pre-hybrid behaviour / A-B baseline)",
     kMeshing, 0, 0, false, true, Echo::Always,
     enum_field<&MeshingOptions::interior, interior_name,
                parse_interior_name>()},
    {"lattice_spacing", "--lattice-spacing", "A",
     "BCC cube size, world units; 0 = 2*delta",
     kMeshing, 0, kInf, false, true, Echo::IfSet,
     PI2M_FIELD(mesh.lattice_spacing)},
    {"threads", "--threads", "T",
     "worker threads; a served job's 0 takes the\nservice's default",
     kMeshing, 0, kMaxJobThreads, false, true, Echo::Always,
     PI2M_FIELD(mesh.threads)},
    {"cm", "--cm", "NAME", "aggressive|random|global|local",
     kMeshing, 0, 0, false, true, Echo::Always,
     enum_field<&MeshingOptions::contention_manager, cm_name,
                parse_cm_name>()},
    {"lb", "--lb", "NAME", "rws|hws",
     kMeshing, 0, 0, false, true, Echo::Always,
     enum_field<&MeshingOptions::load_balancer, lb_name, parse_lb_name>()},

    {"topology", "--topology", "auto|CxS",
     "'auto' probes the host's real socket layout\n"
     "(/sys); 'CxS' declares C cores/socket and S\nsockets/blade",
     kScheduler, 0, 0, false, false, Echo::IfSet,
     TextField{parse_topology, format_topology}},
    {"pin", "--pin", nullptr, "pin worker threads to cpus per the topology",
     kScheduler, 0, 0, false, false, Echo::IfSet, PI2M_FIELD(mesh.pin)},
    {"park_spin_us", "--park-spin-us", "N",
     "idle spin budget before a timed park, us",
     kScheduler, 0, 1e6, false, false, Echo::Always,
     PI2M_FIELD(mesh.park_spin_us)},

    {"smooth", "--smooth", "N", "quality-guarded smoothing iterations",
     kOutput, 0, 1000, false, true, Echo::Always, PI2M_FIELD(smooth)},
    {"outputs", "--out", "FILE",
     ".vtk | .off | .mesh | .stl | .p2m (repeatable)",
     kOutput, 0, 0, false, true, Echo::Never,
     ListField{PI2M_FIELD(outputs), check_output_format}},
    {"report", "--report", nullptr, "quality + fidelity report",
     kOutput, 0, 0, false, true, Echo::Never, PI2M_FIELD(want_report)},
    {"validate", "--validate", nullptr, "structural mesh validation",
     kOutput, 0, 0, false, true, Echo::Never, PI2M_FIELD(want_validation)},
};
// clang-format on
#undef PI2M_FIELD

bool accepts(const JobOption& o, Surface surface) {
  return surface == Surface::Cli || o.wire;
}

bool is_number(const JobOption& o) {
  return std::holds_alternative<IntField>(o.field) ||
         std::holds_alternative<DoubleField>(o.field);
}

/// The accessors take a mutable spec; reads go through this.
JobSpec& readable(const JobSpec& spec) { return const_cast<JobSpec&>(spec); }

}  // namespace

std::span<const JobOption> job_options() { return kRows; }

const JobOption* find_job_option(std::string_view name, Surface surface) {
  for (const JobOption& o : kRows) {
    if (name == (name.starts_with("--") ? o.flag : o.key) &&
        accepts(o, surface)) {
      return &o;
    }
  }
  return nullptr;
}

JobSpec wire_job_defaults() {
  JobSpec s;
  s.mesh.threads = 0;
  return s;
}

telemetry::ConfigValue option_value(const JobOption& o, const JobSpec& spec) {
  using telemetry::ConfigValue;
  return std::visit(
      Overloaded{
          [&](const TextField& t) -> ConfigValue { return t.format(spec); },
          [&](const ListField&) -> ConfigValue {
            fatal("a list option has no single value");
          },
          [&](auto f) -> ConfigValue {
            const auto& v = f(readable(spec));
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>, int>) {
              return std::int64_t{v};
            } else {
              return v;
            }
          },
      },
      o.field);
}

std::string set_option(const JobOption& o, const telemetry::ConfigValue& value,
                       JobSpec& spec) {
  const std::string* text = std::get_if<std::string>(&value);
  return std::visit(
      Overloaded{
          [&](const TextField& t) -> std::string {
            if (text == nullptr) return "want a string";
            if (t.parse(*text, spec)) return "";
            return "unknown value '" + *text + "'";
          },
          [&](const ListField& l) -> std::string {
            if (text == nullptr) return "want a string";
            if (const char* why = l.check(*text)) {
              return "'" + *text + "': " + why;
            }
            l.field(spec).push_back(*text);
            return "";
          },
          [&](auto f) -> std::string {  // int, double, bool, string
            auto& field = f(spec);
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_same_v<T, int> || std::is_same_v<T, double>) {
              const double* num = std::get_if<double>(&value);
              if (num == nullptr) return "want a number";
              std::string why = range_error(*num, o.lo, o.hi, o.lo_open,
                                            std::is_same_v<T, int>);
              if (why.empty()) field = static_cast<T>(*num);
              return why;
            } else {
              const T* v = std::get_if<T>(&value);
              if (v == nullptr) {
                return std::is_same_v<T, bool> ? "want true or false"
                                               : "want a string";
              }
              field = *v;
            }
            return "";
          },
      },
      o.field);
}

std::string parse_number(std::string_view text, double lo, double hi,
                         bool integer, double& out) {
  if (!parse_whole(text, out)) {
    return "'" + std::string(text) + "' is not a number";
  }
  return range_error(out, lo, hi, false, integer);
}

bool same_option_value(const JobOption& o, const JobSpec& a,
                       const JobSpec& b) {
  if (const auto* l = std::get_if<ListField>(&o.field)) {
    return l->field(readable(a)) == l->field(readable(b));
  }
  return option_value(o, a) == option_value(o, b);
}

bool parse_job_flag(int argc, const char* const* argv, int& i,
                    Surface surface, JobSpec& spec, std::string& error) {
  const std::string flag = argv[i];
  const JobOption* o =
      flag.starts_with("--") ? find_job_option(flag, surface) : nullptr;
  if (o == nullptr) return false;
  telemetry::ConfigValue value = true;  // a switch
  if (!std::holds_alternative<BoolField>(o->field)) {
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return true;
    }
    const std::string text = argv[++i];
    double number = 0;
    if (is_number(*o) && !parse_whole(std::string_view(text), number)) {
      error = flag + ": '" + text + "' is not a number";
      return true;
    }
    value = text;
    if (is_number(*o)) value = number;
  }
  const std::string why = set_option(*o, value, spec);
  if (!why.empty()) error = flag + ": " + why;
  return true;
}

std::string job_options_help(Surface surface, const JobSpec& defaults) {
  constexpr std::size_t kColumn = 26;
  std::string out;
  std::string_view group;
  for (const JobOption& o : kRows) {
    if (!accepts(o, surface)) continue;
    if (group != o.group) {
      out.append(group.empty() ? "" : "\n").append(o.group).append(":\n");
      group = o.group;
    }
    std::string line = std::string("  ") + o.flag;
    if (o.metavar != nullptr) line.append(" ").append(o.metavar);
    line.resize(std::max(line.size() + 1, kColumn), ' ');
    for (const char* c = o.help; *c != '\0'; ++c) {
      line += *c;
      if (*c == '\n') line.append(kColumn, ' ');
    }
    // Switches and lists print no default, nor do empty strings.
    if (!std::holds_alternative<BoolField>(o.field) &&
        !std::holds_alternative<ListField>(o.field)) {
      const telemetry::ConfigValue v = option_value(o, defaults);
      const std::string d =
          std::holds_alternative<std::string>(v) ? std::get<std::string>(v)
          : std::holds_alternative<double>(v)
              ? number_text(std::get<double>(v))
              : std::to_string(std::get<std::int64_t>(v));
      if (!d.empty()) line.append(" (default ").append(d).append(")");
    }
    out.append(line).append("\n");
  }
  return out;
}

void echo_job_options(const JobSpec& spec, telemetry::RunManifest& man) {
  man.set_config("input", !spec.input_path.empty() ? spec.input_path
                          : !spec.phantom.empty()  ? "phantom:" + spec.phantom
                                                   : std::string("inline"));
  static const JobSpec defaults;
  for (const JobOption& o : kRows) {
    if (o.echo == Echo::Always ||
        (o.echo == Echo::IfSet && !same_option_value(o, spec, defaults)) ||
        (o.echo == Echo::WithPhantom && !spec.phantom.empty())) {
      man.set_config(o.key, option_value(o, spec));
    }
  }
}

}  // namespace pi2m
