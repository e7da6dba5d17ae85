// Shared types of the end-to-end benchmark binary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "predicates/predicates.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 0.0;  ///< required; run.py passes BENCHMARK.json's run_seconds
  bool trace = false;
  std::string spec;     ///< BENCHMARK.json: workload and metric names, units
  std::string out_dir;  ///< results, traces, scratch outputs, W3 hashes
};

/// Per-job values keyed by metric name.
using Values = std::map<std::string, double>;

/// One job's measurements. `v` holds the per-job value of every end-to-end
/// and per-layer metric the job produced.
struct JobSample {
  bool ok = false;
  std::string error;  ///< why the job failed its checks
  bool traced = false;
  Values v;
};

/// What a workload run hands back to main() for aggregation.
struct RunData {
  std::vector<JobSample> jobs;
  double setup_s = 0.0;
  /// Wall time the jobs ran for: W4 first submit -> last completion; W1-W3
  /// jobs x median job time (their checks run outside the clock).
  double run_wall_s = 0.0;
  std::string inputs;       ///< human-readable input description
  std::string layout;       ///< thread layout
};

/// The serving workload; every other workload this binary runs is an image
/// workload (is_image_workload).
inline const std::string kServeWorkload = "serve-small-2x2";
bool is_image_workload(const std::string& name);

RunData run_image_workload(const Args& args, Tracer& tracer);
RunData run_serve_workload(const Args& args, Tracer& tracer);

/// runtime.rollback_frac = rollbacks / (operations + rollbacks) and
/// runtime.useful_frac = 1 - overhead / (threads x refine time).
void put_runtime_fracs(Values& v, double operations, double rollbacks,
                       double overhead_s, int threads, double refine_s);
/// predicates.* from the counters before and after, divided over `jobs`
/// jobs that shared them.
void put_predicate_values(Values& v, const pi2m::PredicateCounters& before,
                          const pi2m::PredicateCounters& after, double jobs);
/// Span self times of one traced job (`<span>_s`; the job span's own self
/// time is pipeline.unaccounted_s) and pipeline.job_s.
void put_span_values(Values& v, const Tracer& tracer, std::uint64_t job,
                     double job_s);

/// Median; 0 for no samples.
double median(std::vector<double> v);

/// FNV-1a 64 of a byte range (file hashing for the determinism check).
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ull);
/// Whole file contents; empty string when unreadable.
std::string read_file(const std::string& path);

}  // namespace perfbench
