// The job option table: every row travels command line -> JobSpec -> wire
// -> JobSpec unchanged, --help names every flag, the run manifest echoes
// typed values, and refused values are refused on every surface. The flag
// lists and expected fields below are written out by hand on purpose: a
// deleted row or an accessor on the wrong field must fail here.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "imaging/phantom.hpp"
#include "pipeline/job_options.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace pi2m;
using serve::JsonValue;
using telemetry::ConfigValue;

/// Feeds `args` through parse_job_flag; "" or the first failure.
std::string parse_flags(const std::vector<std::string>& args, Surface surface,
                        JobSpec& spec) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  const int argc = static_cast<int>(argv.size());
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (!parse_job_flag(argc, argv.data(), i, surface, spec, error)) {
      return std::string("not a job flag: ") + argv[i];
    }
    if (!error.empty()) return error;
  }
  return "";
}

/// Every wire row away from its default (the input path has its own case:
/// a job takes one input).
const std::vector<std::string> kWireArgs = {
    "--phantom", "knee",          "--size",          "40",
    "--downsample", "2",          "--crop-foreground", "3",
    "--delta", "0.75",            "--rho",           "2.5",
    "--facet-angle", "25",        "--uniform-size",  "4.5",
    "--interior", "lattice",      "--lattice-spacing", "1.25",
    "--threads", "3",             "--cm",            "global",
    "--lb", "rws",                "--smooth",        "2",
    "--out", "/tmp/a.vtk",        "--out",           "/tmp/b.p2m",
    "--report",                   "--validate"};
const std::vector<std::string> kCliOnlyArgs = {"--topology", "4x1"};

void expect_wire_knobs(const JobSpec& s) {
  EXPECT_EQ(s.input_path, "");
  EXPECT_EQ(s.phantom, "knee");
  EXPECT_EQ(s.phantom_size, 40);
  EXPECT_EQ(s.downsample, 2);
  EXPECT_EQ(s.crop_pad, 3);
  EXPECT_EQ(s.mesh.delta, 0.75);
  EXPECT_EQ(s.mesh.radius_edge_bound, 2.5);
  EXPECT_EQ(s.mesh.min_planar_angle_deg, 25.0);
  EXPECT_EQ(s.uniform_size, 4.5);
  EXPECT_EQ(s.mesh.interior, InteriorFill::Lattice);
  EXPECT_EQ(s.mesh.lattice_spacing, 1.25);
  EXPECT_EQ(s.mesh.threads, 3);
  EXPECT_EQ(s.mesh.contention_manager, CmKind::Global);
  EXPECT_EQ(s.mesh.load_balancer, LbKind::RWS);
  EXPECT_EQ(s.smooth, 2);
  EXPECT_EQ(s.outputs, (std::vector<std::string>{"/tmp/a.vtk", "/tmp/b.p2m"}));
  EXPECT_TRUE(s.want_report);
  EXPECT_TRUE(s.want_validation);
}

void expect_cli_only_defaults(const JobSpec& s) {
  const JobSpec d;
  EXPECT_EQ(s.mesh.topology.cores_per_socket, d.mesh.topology.cores_per_socket);
  EXPECT_EQ(s.mesh.topology.sockets_per_blade,
            d.mesh.topology.sockets_per_blade);
}

JobSpec decode(const std::string& job_json) {
  JobSpec spec;
  std::string err;
  EXPECT_TRUE(serve::decode_job(serve::json_parse(job_json), &spec, &err))
      << err << " in " << job_json;
  return spec;
}

TEST(JobOptions, TheTestsCoverEveryRow) {
  std::vector<std::string> flags = kWireArgs;
  flags.insert(flags.end(), kCliOnlyArgs.begin(), kCliOnlyArgs.end());
  flags.push_back("--input");
  for (const JobOption& o : job_options()) {
    EXPECT_NE(std::find(flags.begin(), flags.end(), o.flag), flags.end())
        << o.flag << " has no case in this test";
  }
}

TEST(JobOptions, EveryWireRowRoundTripsCliToWire) {
  JobSpec cli;
  ASSERT_EQ(parse_flags(kWireArgs, Surface::Cli, cli), "");
  expect_wire_knobs(cli);

  // pi2m_submit: the same flags on the wire defaults, encoded, decoded.
  JobSpec submit = wire_job_defaults();
  ASSERT_EQ(parse_flags(kWireArgs, Surface::Wire, submit), "");
  expect_wire_knobs(submit);
  const JobSpec served = decode(serve::encode_job(submit));
  expect_wire_knobs(served);
  expect_cli_only_defaults(served);

  JobSpec by_path = wire_job_defaults();
  ASSERT_EQ(parse_flags({"--input", "/data/vol.mha"}, Surface::Wire, by_path),
            "");
  const JobSpec path_served = decode(serve::encode_job(by_path));
  EXPECT_EQ(path_served.input_path, "/data/vol.mha");
  EXPECT_EQ(path_served.phantom, "");
}

TEST(JobOptions, CliOnlyRowsStayOffTheWire) {
  JobSpec cli;
  ASSERT_EQ(parse_flags(kCliOnlyArgs, Surface::Cli, cli), "");
  EXPECT_EQ(cli.mesh.topology.cores_per_socket, 4);
  EXPECT_EQ(cli.mesh.topology.sockets_per_blade, 1);

  JobSpec submit = wire_job_defaults();
  EXPECT_EQ(parse_flags({"--topology", "4x1"}, Surface::Wire, submit),
            "not a job flag: --topology");
  // Set on a spec, it is still not encoded.
  cli.phantom = "ball";
  const JsonValue job = serve::json_parse(serve::encode_job(cli));
  EXPECT_TRUE(job["topology"].is_null());
}

// Thread pinning, the host-probed topology and the idle-spin knob are gone:
// pi2m refuses each (exit 2), on the command line as on the wire.
TEST(JobOptions, RetiredSchedulerKnobsAreRefused) {
  for (const Surface surface : {Surface::Cli, Surface::Wire}) {
    JobSpec s;
    EXPECT_EQ(parse_flags({"--pin"}, surface, s), "not a job flag: --pin");
    EXPECT_EQ(parse_flags({"--park-spin-us", "70"}, surface, s),
              "not a job flag: --park-spin-us");
  }
  JobSpec s;
  EXPECT_EQ(parse_flags({"--topology", "auto"}, Surface::Cli, s),
            "--topology: unknown value 'auto'");
  for (const char* key : {"pin", "park_spin_us"}) {
    EXPECT_EQ(find_job_option(key, Surface::Cli), nullptr) << key;
  }
}

TEST(JobOptions, SubmitSendsAnExplicitThreadCountOfOne) {
  // JobSpec{} runs one thread, the wire's 0 means the service default: an
  // explicit --threads 1 must reach the service.
  JobSpec one = wire_job_defaults();
  ASSERT_EQ(parse_flags({"--phantom", "ball", "--threads", "1"}, Surface::Wire,
                        one),
            "");
  const JsonValue job = serve::json_parse(serve::encode_job(one));
  ASSERT_TRUE(job["threads"].is_number());
  EXPECT_EQ(job["threads"].as_int(), 1);
  EXPECT_EQ(decode(serve::encode_job(one)).mesh.threads, 1);

  JobSpec unset = wire_job_defaults();
  ASSERT_EQ(parse_flags({"--phantom", "ball"}, Surface::Wire, unset), "");
  EXPECT_EQ(serve::encode_job(unset), R"({"phantom":"ball"})");
  EXPECT_EQ(decode(serve::encode_job(unset)).mesh.threads, 0);
}

TEST(JobOptions, HelpNamesEveryCliRow) {
  const std::string cli = job_options_help(Surface::Cli, JobSpec{});
  const std::string wire = job_options_help(Surface::Wire, wire_job_defaults());
  for (const char* flag :
       {"--input", "--phantom", "--size", "--downsample", "--crop-foreground",
        "--delta", "--rho", "--facet-angle", "--uniform-size", "--interior",
        "--lattice-spacing", "--threads", "--cm", "--lb", "--smooth", "--out",
        "--report", "--validate"}) {
    EXPECT_NE(cli.find(std::string("  ") + flag + " "), std::string::npos)
        << flag;
    EXPECT_NE(wire.find(std::string("  ") + flag + " "), std::string::npos)
        << flag;
  }
  EXPECT_NE(cli.find("  --topology "), std::string::npos);
  EXPECT_EQ(wire.find("--topology"), std::string::npos);
  for (const char* gone : {"--pin", "--park-spin-us", "auto|"}) {
    EXPECT_EQ(cli.find(gone), std::string::npos) << gone;
  }
  // Defaults come from the spec handed in.
  EXPECT_NE(cli.find("(default 64)"), std::string::npos);
  EXPECT_NE(cli.find("(default local)"), std::string::npos);
  EXPECT_NE(cli.find("(default 8x2)"), std::string::npos);
}

TEST(JobOptions, ManifestEchoesEveryRowTyped) {
  JobSpec s;
  std::vector<std::string> args = kWireArgs;
  args.insert(args.end(), kCliOnlyArgs.begin(), kCliOnlyArgs.end());
  ASSERT_EQ(parse_flags(args, Surface::Cli, s), "");
  telemetry::RunManifest man;
  echo_job_options(s, man);
  const std::map<std::string, ConfigValue> want = {
      {"input", std::string("phantom:knee")},
      {"size", std::int64_t{40}},
      {"downsample", std::int64_t{2}},
      {"crop_pad", std::int64_t{3}},
      {"delta", 0.75},
      {"rho", 2.5},
      {"facet_angle", 25.0},
      {"uniform_size", 4.5},
      {"interior", std::string("lattice")},
      {"lattice_spacing", 1.25},
      {"threads", std::int64_t{3}},
      {"cm", std::string("global")},
      {"lb", std::string("rws")},
      {"topology", std::string("4x1")},
      {"smooth", std::int64_t{2}},
  };
  EXPECT_EQ(man.config.size(), want.size());
  for (const auto& [key, value] : want) {
    const auto it = man.config.find(key);
    ASSERT_NE(it, man.config.end()) << key;
    EXPECT_TRUE(it->second == value) << key;
  }
  // The typed values reach the JSON as numbers.
  const JsonValue json = serve::json_parse(man.to_json());
  EXPECT_EQ(json["schema_version"].as_int(), 2);
  EXPECT_TRUE(json["config"]["threads"].is_number());
  EXPECT_EQ(json["config"]["delta"].as_double(), 0.75);
  for (const char* gone : {"pin", "park_spin_us"}) {
    EXPECT_TRUE(json["config"][gone].is_null()) << gone;
  }

  // At the defaults, the rows echoed only when set stay out.
  JobSpec plain;
  plain.input_path = "/data/vol.mha";
  telemetry::RunManifest quiet;
  echo_job_options(plain, quiet);
  std::vector<std::string> keys;
  for (const auto& [key, value] : quiet.config) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "cm", "delta", "facet_angle", "input", "interior", "lb",
                      "rho", "smooth", "threads"}));
  EXPECT_TRUE(quiet.config["input"] == ConfigValue(std::string("/data/vol.mha")));
}

TEST(JobOptions, BadCommandLineValuesAreRefused) {
  const std::vector<std::vector<std::string>> bad = {
      {"--delta", "0"},        {"--delta", "-1"},
      {"--delta", "1.5x"},     {"--delta", "nan"},
      {"--delta", "inf"},      {"--threads", "abc"},
      {"--threads", "-3"},     {"--threads", "2.5"},
      {"--threads", "257"},    {"--size", "16x"},
      {"--size", "1"},         {"--lattice-spacing", "-1"},
      {"--facet-angle", "61"}, {"--crop-foreground", "-2"},
      {"--out", "/tmp/m.obj"}, {"--cm", "chaos"},
      {"--lb", "HWS"},         {"--interior", "voronoi"},
      {"--topology", "8x2junk"}, {"--topology", "0x2"},
      {"--topology", "65536x65536"}, {"--topology", "46341x46341"},
      {"--topology", "257x1"},   {"--topology", "1x257"},
      {"--topology", "-1x4"},    {"--delta"},
  };
  for (const auto& args : bad) {
    JobSpec s;
    EXPECT_NE(parse_flags(args, Surface::Cli, s), "") << args[0];
  }
  // The range ends are in range.
  JobSpec edge;
  EXPECT_EQ(parse_flags({"--threads", "256", "--threads", "0", "--size", "2",
                         "--crop-foreground", "-1", "--facet-angle", "60",
                         "--topology", "256x256"},
                        Surface::Cli, edge),
            "");
  EXPECT_EQ(edge.mesh.topology.cores_per_socket, 256);
  EXPECT_EQ(edge.mesh.topology.sockets_per_blade, 256);
}

// Every phantom name --phantom's help lists builds a phantom.
TEST(JobOptions, EveryHelpPhantomNameResolves) {
  const JobOption* row = find_job_option("phantom", Surface::Cli);
  ASSERT_NE(row, nullptr);
  std::string text = row->help;
  text = text.substr(0, text.find(" ("));  // drop the trailing remark
  std::erase(text, '\n');
  std::vector<std::string> names;
  for (std::size_t b = 0, e; b <= text.size(); b = e + 1) {
    e = std::min(text.find('|', b), text.size());
    names.push_back(text.substr(b, e - b));
  }
  EXPECT_EQ(names.size(), 8u);
  for (const std::string& name : names) {
    const auto img = phantom::by_name(name, 12);
    ASSERT_TRUE(img.has_value()) << "'" << name << "'";
    EXPECT_EQ(img->nx(), 12) << name;
    EXPECT_FALSE(img->labels_present().empty()) << name;
  }
  EXPECT_FALSE(phantom::by_name("nosuch", 12).has_value());
  EXPECT_FALSE(phantom::by_name("", 12).has_value());
}

// The number parse pi2m_serve's own flags and the paper benches'
// positional arguments use: whole string, integer, closed or left-open
// range.
TEST(JobOptions, ParseNumberIsWholeStringAndRangeChecked) {
  double v = 0;
  EXPECT_EQ(parse_number("256", 1, kMaxJobThreads, true, v), "");
  EXPECT_EQ(v, 256);
  EXPECT_EQ(parse_number("1", 1, kMaxJobThreads, true, v), "");
  for (const char* bad : {"2x", "", " 3", "abc", "257", "0", "-1", "1.5",
                          "nan", "inf"}) {
    EXPECT_NE(parse_number(bad, 1, kMaxJobThreads, true, v), "") << bad;
  }
  EXPECT_EQ(parse_number("1.5", 0, 2, false, v), "");
  EXPECT_EQ(v, 1.5);
  // A bench's delta: (0, inf).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_number("0", 0, kInf, false, v), "");
  EXPECT_EQ(parse_number("0", 0, kInf, false, v, /*lo_open=*/true),
            "0 is out of range (0, inf)");
  EXPECT_EQ(parse_number("1e-9", 0, kInf, false, v, true), "");
  EXPECT_NE(parse_number("inf", 0, kInf, false, v, true), "");
}

}  // namespace
