// bench_serve — serving-path throughput and latency.
//
//   ./bench_serve [--manifest PATH] [grid_size=96] [delta=4.0] [jobs=12]
//
// Drives an in-process MeshService (the same engine behind pi2m_serve)
// with `jobs` identical phantom requests at 1, 4 and 8 concurrent
// in-flight executors, once against a cold EDT cache (zero byte budget:
// every job recomputes the feature transform) and once warm (the cache
// is pre-seeded, every job hits). Reports jobs/sec and the mesh-latency
// p50/p95/p99 per configuration; with --manifest the whole table is also
// written as one JSON document.
//
// On a single-hardware-thread container the in-flight levels timeshare
// one core, so jobs/sec does not scale with executors — the cold-vs-warm
// delta (EDT work skipped entirely) is the signal to read.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"
#include "telemetry/json_writer.hpp"

namespace {

using namespace pi2m;
using namespace pi2m::serve;

struct RunResult {
  int inflight = 0;
  bool warm = false;
  int jobs = 0;
  double wall_sec = 0.0;
  double jobs_per_sec = 0.0;
  double mean_sec = 0.0;  ///< exact (histogram sum/count), not bucketed
  double p50_sec = 0.0, p90_sec = 0.0, p95_sec = 0.0, p99_sec = 0.0;
  double queue_wait_p50_sec = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

JobSpec make_spec(int size, double delta) {
  JobSpec spec;
  spec.phantom = "ball";
  spec.phantom_size = size;
  spec.mesh.delta = delta;
  spec.mesh.threads = 1;
  return spec;
}

RunResult run_level(int inflight, bool warm, int jobs, int size,
                    double delta) {
  ServiceConfig cfg;
  cfg.executors = inflight;
  cfg.queue_capacity = static_cast<std::size_t>(jobs) + 8;
  cfg.default_threads = 1;
  // Cold: a zero byte budget evicts every entry on insert, so each job
  // recomputes the EDT (single-flight coalescing still applies while a
  // compute is in progress, as it would in a real cold burst).
  cfg.edt_cache_bytes = warm ? std::size_t{512} << 20 : 0;

  MeshService svc(cfg);
  if (warm) {
    // Seed the cache outside the timed window.
    const auto seed = svc.submit(make_spec(size, delta), Priority::Normal);
    if (seed.accepted) svc.wait(seed.id);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    const auto res = svc.submit(make_spec(size, delta), Priority::Normal);
    if (!res.accepted) {
      std::fprintf(stderr, "bench_serve: submission rejected (%s)\n",
                   res.reject_code != nullptr ? res.reject_code : "?");
      std::exit(1);
    }
    ids.push_back(res.id);
  }
  for (const auto id : ids) {
    const auto rec = svc.wait(id);
    if (rec == nullptr || rec->current_state() != JobState::Done) {
      std::fprintf(stderr, "bench_serve: job %llu did not complete\n",
                   static_cast<unsigned long long>(id));
      std::exit(1);
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const telemetry::MetricsRegistry reg = svc.metrics_snapshot();
  RunResult r;
  r.inflight = inflight;
  r.warm = warm;
  r.jobs = jobs;
  r.wall_sec = wall;
  r.jobs_per_sec = static_cast<double>(jobs) / wall;
  const std::uint64_t n = reg.u64("serve.latency.mesh.count");
  r.mean_sec =
      n > 0 ? reg.f64("serve.latency.mesh.sum_sec") / static_cast<double>(n)
            : 0.0;
  r.p50_sec = reg.f64("serve.latency.mesh.p50_sec");
  r.p90_sec = reg.f64("serve.latency.mesh.p90_sec");
  r.p95_sec = reg.f64("serve.latency.mesh.p95_sec");
  r.p99_sec = reg.f64("serve.latency.mesh.p99_sec");
  r.queue_wait_p50_sec = reg.f64("serve.latency.queue_wait.p50_sec");
  r.cache_hits = reg.u64("serve.edt_cache.hits");
  r.cache_misses = reg.u64("serve.edt_cache.misses");
  svc.drain();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (a.rfind("--manifest=", 0) == 0) {
      manifest_path = a.substr(std::string("--manifest=").size());
    } else {
      pos.push_back(a);
    }
  }
  // Default workload: a coarse "interactive preview" mesh over a sizable
  // volume, where the EDT is ~half the per-job cost — the serving sweet
  // spot the warm cache targets. (Finer deltas shift time into refinement
  // and shrink the cache's relative win.)
  const int size = pos.size() > 0 ? std::atoi(pos[0].c_str()) : 96;
  const double delta = pos.size() > 1 ? std::atof(pos[1].c_str()) : 4.0;
  const int jobs = pos.size() > 2 ? std::atoi(pos[2].c_str()) : 12;

  pi2m::bench::print_host_note();
  std::printf("# bench_serve: ball %d, delta %.3g, %d jobs per level\n\n",
              size, delta, jobs);
  std::printf("%8s %6s %10s %10s %10s %10s %10s %8s\n", "inflight", "cache",
              "jobs/sec", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "hits");

  std::vector<RunResult> results;
  for (const int inflight : {1, 4, 8}) {
    for (const bool warm : {false, true}) {
      const RunResult r = run_level(inflight, warm, jobs, size, delta);
      std::printf("%8d %6s %10.2f %10.2f %10.2f %10.2f %10.2f %8llu\n",
                  r.inflight, r.warm ? "warm" : "cold", r.jobs_per_sec,
                  1e3 * r.mean_sec, 1e3 * r.p50_sec, 1e3 * r.p95_sec,
                  1e3 * r.p99_sec,
                  static_cast<unsigned long long>(r.cache_hits));
      results.push_back(r);
    }
  }

  // Headline: warm-over-cold speedup at each level (EDT skipped per job).
  std::printf("\n");
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    std::printf(
        "# inflight %d: warm/cold throughput x%.2f, mean latency x%.2f\n",
        results[i].inflight,
        results[i + 1].jobs_per_sec / results[i].jobs_per_sec,
        results[i].mean_sec / results[i + 1].mean_sec);
  }

  if (!manifest_path.empty()) {
    pi2m::telemetry::JsonWriter w;
    w.begin_object()
        .kv("bench", "bench_serve")
        .kv("workload", "phantom:ball")
        .kv("size", size)
        .kv("delta", delta)
        .kv("jobs_per_level", jobs)
        .kv("threads_per_job", 1)
        .kv("hardware_threads",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .key("levels")
        .begin_array();
    for (const RunResult& r : results) {
      w.begin_object()
          .kv("inflight", r.inflight)
          .kv("cache", r.warm ? "warm" : "cold")
          .kv("jobs", r.jobs)
          .kv("wall_sec", r.wall_sec)
          .kv("jobs_per_sec", r.jobs_per_sec)
          .kv("mesh_mean_sec", r.mean_sec)
          .kv("mesh_p50_sec", r.p50_sec)
          .kv("mesh_p90_sec", r.p90_sec)
          .kv("mesh_p95_sec", r.p95_sec)
          .kv("mesh_p99_sec", r.p99_sec)
          .kv("queue_wait_p50_sec", r.queue_wait_p50_sec)
          .kv("edt_cache_hits", r.cache_hits)
          .kv("edt_cache_misses", r.cache_misses)
          .end_object();
    }
    w.end_array().end_object();
    std::ofstream out(manifest_path);
    out << w.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_serve: failed to write %s\n",
                   manifest_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", manifest_path.c_str());
  }
  return 0;
}
