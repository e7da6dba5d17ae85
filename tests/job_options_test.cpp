// The job option table: every row travels command line -> JobSpec -> wire
// -> JobSpec unchanged, --help names every flag, the run manifest echoes
// typed values, and refused values are refused on every surface. The flag
// lists and expected fields below are written out by hand on purpose: a
// deleted row or an accessor on the wrong field must fail here.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

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
    "--interior", "delaunay",     "--lattice-spacing", "1.25",
    "--threads", "3",             "--cm",            "global",
    "--lb", "rws",                "--smooth",        "2",
    "--out", "/tmp/a.vtk",        "--out",           "/tmp/b.p2m",
    "--report",                   "--validate"};
const std::vector<std::string> kCliOnlyArgs = {"--topology", "4x1", "--pin",
                                               "--park-spin-us", "70"};

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
  EXPECT_EQ(s.mesh.interior, InteriorFill::Delaunay);
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
  EXPECT_EQ(s.mesh.topology_auto, d.mesh.topology_auto);
  EXPECT_EQ(s.mesh.pin, d.mesh.pin);
  EXPECT_EQ(s.mesh.park_spin_us, d.mesh.park_spin_us);
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
  EXPECT_FALSE(cli.mesh.topology_auto);
  EXPECT_TRUE(cli.mesh.pin);
  EXPECT_EQ(cli.mesh.park_spin_us, 70);
  JobSpec autotopo;
  ASSERT_EQ(parse_flags({"--topology", "auto"}, Surface::Cli, autotopo), "");
  EXPECT_TRUE(autotopo.mesh.topology_auto);

  for (const char* flag : {"--topology", "--pin", "--park-spin-us"}) {
    JobSpec submit = wire_job_defaults();
    EXPECT_EQ(parse_flags({flag, "1"}, Surface::Wire, submit),
              std::string("not a job flag: ") + flag);
  }
  // Set on a spec, they are still not encoded.
  cli.phantom = "ball";
  const JsonValue job = serve::json_parse(serve::encode_job(cli));
  for (const char* key : {"topology", "pin", "park_spin_us"}) {
    EXPECT_TRUE(job[key].is_null()) << key;
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
  for (const char* flag : {"--topology", "--pin", "--park-spin-us"}) {
    EXPECT_NE(cli.find(std::string("  ") + flag + " "), std::string::npos)
        << flag;
    EXPECT_EQ(wire.find(flag), std::string::npos) << flag;
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
      {"interior", std::string("delaunay")},
      {"lattice_spacing", 1.25},
      {"threads", std::int64_t{3}},
      {"cm", std::string("global")},
      {"lb", std::string("rws")},
      {"topology", std::string("4x1")},
      {"pin", true},
      {"park_spin_us", std::int64_t{70}},
      {"smooth", std::int64_t{2}},
  };
  EXPECT_EQ(man.config.size(), want.size());
  for (const auto& [key, value] : want) {
    const auto it = man.config.find(key);
    ASSERT_NE(it, man.config.end()) << key;
    EXPECT_TRUE(it->second == value) << key;
  }
  // The typed values reach the JSON as numbers and bools.
  const JsonValue json = serve::json_parse(man.to_json());
  EXPECT_EQ(json["schema_version"].as_int(), 2);
  EXPECT_TRUE(json["config"]["threads"].is_number());
  EXPECT_TRUE(json["config"]["pin"].as_bool());
  EXPECT_EQ(json["config"]["delta"].as_double(), 0.75);

  // At the defaults, the rows echoed only when set stay out.
  JobSpec plain;
  plain.input_path = "/data/vol.mha";
  telemetry::RunManifest quiet;
  echo_job_options(plain, quiet);
  std::vector<std::string> keys;
  for (const auto& [key, value] : quiet.config) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "cm", "delta", "facet_angle", "input", "interior", "lb",
                      "park_spin_us", "rho", "smooth", "threads"}));
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
      {"--delta"},
  };
  for (const auto& args : bad) {
    JobSpec s;
    EXPECT_NE(parse_flags(args, Surface::Cli, s), "") << args[0];
  }
  // The range ends are in range.
  JobSpec edge;
  EXPECT_EQ(parse_flags({"--threads", "256", "--threads", "0", "--size", "2",
                         "--crop-foreground", "-1", "--facet-angle", "60"},
                        Surface::Cli, edge),
            "");
}

// The number parse pi2m_serve's own flags use: whole string, integer,
// closed range.
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
}

}  // namespace
