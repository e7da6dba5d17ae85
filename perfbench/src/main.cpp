// pi2m_perfbench: one run of one benchmark workload.
//
//   pi2m_perfbench --spec BENCHMARK.json --workload <name> --seed <n>
//                  --seconds <s> --trace <0|1> --out-dir <dir>
//
// BENCHMARK.json names the workloads and the metrics with their units;
// perfbench/README.md says what each workload does and why it exists.
//
// The last line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from spans recorded around each library call. A metric
// the spec names but the run does not produce is an error (exit 1). A full
// record of the run (fingerprint, per-job values, failures) is written to
// <out-dir>/results/, and the traced run's spans to <out-dir>/traces/.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "serve/json.hpp"
#include "support/simd.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/run_manifest.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = pi2m::serve;
using pi2m::telemetry::JsonWriter;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The workload and metric names of BENCHMARK.json, the one place they are
/// listed.
struct Spec {
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

bool load_spec(const std::string& path, Spec* spec, std::string* err) {
  const std::string text = read_file(path);
  if (text.empty()) {
    *err = "cannot read " + path;
    return false;
  }
  const serve::JsonValue doc = serve::json_parse(text, err);
  if (!doc.is_object()) return false;
  for (const serve::JsonValue& w : doc["workloads"].as_array()) {
    spec->workloads.push_back(w["name"].as_string());
  }
  for (const serve::JsonValue& m : doc["end_to_end"].as_array()) {
    spec->end_to_end.push_back({m["name"].as_string(), m["unit"].as_string()});
  }
  for (const serve::JsonValue& m : doc["per_layer"].as_array()) {
    spec->per_layer.push_back({m["name"].as_string(), m["unit"].as_string()});
  }
  for (const std::string& w : spec->workloads) {
    if (w != kServeWorkload && !is_image_workload(w)) {
      *err = path + " names workload " + w + ", which this binary lacks";
      return false;
    }
  }
  if (spec->workloads.empty() || spec->end_to_end.empty() ||
      spec->per_layer.empty()) {
    *err = path + " lists no workloads or no metrics";
    return false;
  }
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pi2m_perfbench: %s\nusage: pi2m_perfbench --spec "
               "BENCHMARK.json --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--spec") {
      a->spec = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->spec.empty() &&
         !a->out_dir.empty() && a->seconds > 0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fingerprint(const Args& a, const RunData& rd) {
  JsonWriter w;
  w.begin_object()
      .kv("cpu_model", cpu_model())
      .kv("nproc", affinity_cpus())
      .kv("hardware_threads", std::thread::hardware_concurrency())
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("cxx_flags", PERFBENCH_CXX_FLAGS)
      .kv("compiler", PERFBENCH_COMPILER)
      .kv("simd", pi2m::simd::level_name(pi2m::simd::active_level()))
      .kv("git", pi2m::telemetry::build_git_describe())
      .kv("workload", a.workload)
      .kv("seed", a.seed)
      .kv("seconds", a.seconds)
      .kv("trace", a.trace)
      .kv("inputs", rd.inputs)
      .kv("layout", rd.layout)
      .end_object();
  return w.str();
}

/// A job with a non-finite value fails (a NaN Hausdorff must not pass as a
/// good mesh); the value is dropped so the run's medians stay finite.
void fail_non_finite(RunData& rd) {
  for (JobSample& j : rd.jobs) {
    for (auto it = j.v.begin(); it != j.v.end();) {
      if (std::isfinite(it->second)) {
        ++it;
        continue;
      }
      if (j.error.empty()) j.error = "non-finite " + it->first;
      j.ok = false;
      it = j.v.erase(it);
    }
  }
}

/// The values of `name` over the jobs that carry it.
std::vector<double> job_values(const RunData& rd, const std::string& name) {
  std::vector<double> v;
  for (const JobSample& j : rd.jobs) {
    const auto it = j.v.find(name);
    if (it != j.v.end()) v.push_back(it->second);
  }
  return v;
}

/// 90th percentile by nearest rank, rounding the rank down. A W1-W3 run
/// has only a few jobs; this way one stalled job moves it by at most one
/// rank instead of dragging an interpolated value towards itself.
double p90(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.9 * static_cast<double>(v.size() - 1))];
}

Values end_to_end(const RunData& rd) {
  std::size_t ok = 0;
  for (const JobSample& j : rd.jobs) ok += j.ok ? 1 : 0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Values m;
  m["setup_s"] = rd.setup_s;
  for (const char* k : {"job_s", "mesh_s", "elements_per_s", "hausdorff_vox",
                        "max_radius_edge", "min_boundary_angle_deg"}) {
    m[k] = median(job_values(rd, k));
  }
  m["job_p90_s"] = p90(job_values(rd, "job_s"));
  m["jobs_per_s"] =
      rd.run_wall_s > 0 ? static_cast<double>(ok) / rd.run_wall_s : 0.0;
  m["ok_frac"] = rd.jobs.empty() ? 0.0
                                 : static_cast<double>(ok) /
                                       static_cast<double>(rd.jobs.size());
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return m;
}

Values per_layer(const RunData& rd, const std::vector<MetricDef>& defs) {
  Values m;
  for (const MetricDef& d : defs) m[d.name] = median(job_values(rd, d.name));
  std::vector<double> traced, untraced, accounted;
  for (const JobSample& j : rd.jobs) {
    const auto it = j.v.find("job_s");
    if (it == j.v.end()) continue;
    (j.traced ? traced : untraced).push_back(it->second);
    const auto u = j.v.find("pipeline.unaccounted_s");
    if (j.traced && u != j.v.end() && it->second > 0) {
      accounted.push_back(1.0 - u->second / it->second);
    }
  }
  m["pipeline.accounted_frac"] = median(accounted);
  m["trace.overhead_s"] = median(traced) - median(untraced);
  const std::vector<double> hits = job_values(rd, "serve.edt_cache_hit");
  m["serve.edt_cache_hit_frac"] =
      hits.empty() ? 0.0
                   : std::accumulate(hits.begin(), hits.end(), 0.0) /
                         static_cast<double>(hits.size());
  return m;
}

/// {name: {value, unit}} for every metric in `defs`. Returns false (and
/// names the metric) when the run produced no value for one of them.
bool write_metrics(JsonWriter& w, const Values& vals,
                   const std::vector<MetricDef>& defs, std::string* missing) {
  w.begin_object();
  for (const MetricDef& d : defs) {
    const auto it = vals.find(d.name);
    if (it == vals.end()) {
      *missing = d.name;
      return false;
    }
    w.key(d.name).begin_object().kv("value", it->second).kv("unit", d.unit)
        .end_object();
  }
  w.end_object();
  return true;
}

void write_jobs(JsonWriter& w, const RunData& rd) {
  w.begin_array();
  for (const JobSample& j : rd.jobs) {
    w.begin_object().kv("ok", j.ok).kv("traced", j.traced);
    if (!j.error.empty()) w.kv("error", j.error);
    w.key("values").begin_object();
    for (const auto& [k, v] : j.v) w.kv(k, v);
    w.end_object().end_object();
  }
  w.end_array();
}

}  // namespace

void put_runtime_fracs(Values& v, double operations, double rollbacks,
                       double overhead_s, int threads, double refine_s) {
  v["runtime.rollback_frac"] = operations + rollbacks > 0
                                   ? rollbacks / (operations + rollbacks)
                                   : 0.0;
  v["runtime.useful_frac"] =
      refine_s > 0 ? 1.0 - overhead_s / (threads * refine_s) : 0.0;
}

void put_predicate_values(Values& v, const pi2m::PredicateCounters& a,
                          const pi2m::PredicateCounters& b, double jobs) {
  const auto d = [](unsigned long long x, unsigned long long y) {
    return static_cast<double>(y - x);
  };
  const double calls = d(a.orient3d_calls, b.orient3d_calls) +
                       d(a.insphere_calls, b.insphere_calls);
  const double adapt = d(a.orient3d_adapt, b.orient3d_adapt) +
                       d(a.insphere_adapt, b.insphere_adapt);
  const double exact = d(a.orient3d_exact, b.orient3d_exact) +
                       d(a.insphere_exact, b.insphere_exact);
  v["predicates.orient3d_calls"] = d(a.orient3d_calls, b.orient3d_calls) / jobs;
  v["predicates.insphere_calls"] = d(a.insphere_calls, b.insphere_calls) / jobs;
  v["predicates.adapt_frac"] = calls > 0 ? adapt / calls : 0.0;
  v["predicates.exact_frac"] = calls > 0 ? exact / calls : 0.0;
}

void put_span_values(Values& v, const Tracer& tracer, std::uint64_t job,
                     double job_s) {
  for (const auto& [name, self] : tracer.self_times(job)) {
    v[name == "pipeline.job" ? "pipeline.unaccounted_s" : name + "_s"] = self;
  }
  v["pipeline.job_s"] = job_s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream o;
  o << f.rdbuf();
  return o.str();
}

int run(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, &args)) return usage("bad arguments");
  } catch (const std::exception&) {
    return usage("bad number");
  }
  Spec spec;
  std::string err;
  if (!load_spec(args.spec, &spec, &err)) return usage(err.c_str());
  if (std::find(spec.workloads.begin(), spec.workloads.end(),
                args.workload) == spec.workloads.end()) {
    return usage(("unknown workload " + args.workload).c_str());
  }
  Tracer tracer(args.trace);
  RunData rd = args.workload == kServeWorkload
                   ? run_serve_workload(args, tracer)
                   : run_image_workload(args, tracer);
  fail_non_finite(rd);

  std::size_t failed = 0;
  for (const JobSample& j : rd.jobs) {
    if (j.ok) continue;
    ++failed;
    std::fprintf(stderr, "perfbench: job failed: %s\n", j.error.c_str());
  }
  const std::string fp = fingerprint(args, rd);
  JsonWriter metrics;
  std::string missing;
  if (!(args.trace
            ? write_metrics(metrics, per_layer(rd, spec.per_layer),
                            spec.per_layer, &missing)
            : write_metrics(metrics, end_to_end(rd), spec.end_to_end,
                            &missing))) {
    std::fprintf(stderr, "pi2m_perfbench: no value for metric %s\n",
                 missing.c_str());
    return 1;
  }

  const std::string stem = args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  fs::create_directories(fs::path(args.out_dir) / "results");
  {
    JsonWriter record;
    record.begin_object().key("fingerprint").raw(fp);
    record.key("metrics").raw(metrics.str()).key("jobs");
    write_jobs(record, rd);
    record.end_object();
    std::ofstream(fs::path(args.out_dir) / "results" / (stem + ".json"))
        << record.str() << "\n";
  }
  if (args.trace) {
    fs::create_directories(fs::path(args.out_dir) / "traces");
    tracer.write_chrome(
        (fs::path(args.out_dir) / "traces" / (stem + ".json")).string());
  }

  JsonWriter result;
  result.begin_object()
      .kv("correct", failed == 0 && !rd.jobs.empty())
      .kv("attempted", static_cast<std::uint64_t>(rd.jobs.size()))
      .kv("failed", static_cast<std::uint64_t>(failed))
      .key("metrics")
      .raw(metrics.str())
      .end_object();
  std::printf("fingerprint %s\n%s\n", fp.c_str(), result.str().c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
