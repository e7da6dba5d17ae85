// W4: small-job serving through the daemon's engine.
//
// A MeshService (2 executors x 2 refinement workers, warm arenas, EDT cache
// on) serves protocol requests carrying inline `random_blobs` volumes. One
// generator thread keeps 4 requests in flight (closed loop): it decodes the
// next request line with serve::parse_request, submits it, and replaces
// each job as soon as the job reaches a terminal state. The image pool is
// smaller than the job count, so most jobs hit the EDT cache.
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "imaging/phantom.hpp"
#include "predicates/predicates.hpp"
#include "runtime/stats.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace perfbench {

using namespace pi2m;
using namespace pi2m::serve;

namespace {

constexpr int kImageSize = 48;
/// Blob images differ a lot in work (9k..23k tets each). The pool samples
/// kCandidates seeded images at kPoolSize evenly spaced ranks of their
/// surface size, so every seed's pool spans the same range of job sizes.
/// With ~150 jobs a run, about four in five hit the EDT cache.
constexpr int kPoolSize = 32;
constexpr int kCandidates = 96;
constexpr int kInFlight = 4;
constexpr int kMinJobs = 100;
constexpr int kSetupRepeats = 3;

std::string submit_line(const LabeledImage3D& img) {
  const std::vector<Label>& raw = img.raw();
  return "{\"op\":\"submit\",\"priority\":\"normal\",\"job\":{"
         "\"volume\":{\"nx\":" + std::to_string(img.nx()) +
         ",\"ny\":" + std::to_string(img.ny()) +
         ",\"nz\":" + std::to_string(img.nz()) +
         ",\"spacing\":[1,1,1],\"origin\":[0,0,0],\"labels_b64\":\"" +
         base64_encode(raw.data(), raw.size() * sizeof(Label)) +
         "\"},\"delta\":1.0,\"threads\":2,\"report\":true,\"validate\":true}}";
}

std::size_t surface_voxels(const LabeledImage3D& img) {
  std::size_t n = 0;
  for (int z = 0; z < img.nz(); ++z) {
    for (int y = 0; y < img.ny(); ++y) {
      for (int x = 0; x < img.nx(); ++x) {
        n += img.is_surface_voxel({x, y, z}) ? 1 : 0;
      }
    }
  }
  return n;
}

std::vector<LabeledImage3D> make_pool(unsigned seed) {
  std::vector<std::pair<std::size_t, LabeledImage3D>> cand;
  for (int k = 0; k < kCandidates; ++k) {
    LabeledImage3D img = phantom::random_blobs(
        kImageSize, seed * 1000u + static_cast<unsigned>(k));
    const std::size_t area = surface_voxels(img);
    cand.emplace_back(area, std::move(img));
  }
  std::stable_sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<LabeledImage3D> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    pool.push_back(std::move(cand[(2 * i + 1) * kCandidates / (2 * kPoolSize)].second));
  }
  return pool;
}

ServiceConfig service_config() {
  ServiceConfig cfg;
  cfg.executors = 2;
  cfg.default_threads = 2;
  cfg.warm_arena = true;
  return cfg;
}

struct Submitted {
  std::uint64_t id = 0;
  bool accepted = false;
  bool traced = false;
  double decode_t0 = 0, submit_t0 = 0, submit_t1 = 0, done_t = 0;
  std::shared_ptr<JobRecord> rec;
};

}  // namespace

RunData run_serve_workload(const Args& args, Tracer& tracer) {
  RunData rd;

  // --- set-up: image pool, encoded request lines, service start ---
  std::vector<std::string> lines;
  std::unique_ptr<MeshService> service;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    const double t0 = now_sec();
    lines.clear();
    for (const LabeledImage3D& img : make_pool(args.seed)) {
      lines.push_back(submit_line(img));
    }
    service = std::make_unique<MeshService>(service_config());
    setups.push_back(now_sec() - t0);
  }
  rd.setup_s = median(setups);

  // Warm-up: one job per executor on an image outside the pool, so the
  // executors' first-job costs and the arena pool's first growth are paid
  // in set-up while the EDT cache stays cold for the pool.
  {
    const double t0 = now_sec();
    const std::string warm = submit_line(phantom::ball(kImageSize));
    std::vector<std::uint64_t> ids;
    for (int e = 0; e < service->config().executors; ++e) {
      Request req = parse_request(warm);
      ids.push_back(service->submit(std::move(req.job), req.priority).id);
    }
    for (std::uint64_t id : ids) service->wait(id);
    rd.setup_s += now_sec() - t0;
  }
  rd.inputs = std::to_string(kPoolSize) + " of " +
              std::to_string(kCandidates) + " random_blobs " +
              std::to_string(kImageSize) +
              "^3 volumes inline, delta=1.0, report+validate";
  rd.layout = "1 process, MeshService 2 executors x 2 refinement workers, "
              "1 generator thread, 4 requests in flight";

  // --- timed closed loop on one generator thread ---
  std::vector<Submitted> jobs;
  const PredicateCounters p0 = predicate_counters();
  const double t_run0 = now_sec();
  std::thread generator([&] {
    std::vector<std::size_t> in_flight;
    std::size_t next = 0;
    // Returns false when the service refuses the job (it then counts as
    // failed), so a refusing service cannot spin the fill loop.
    auto submit_next = [&] {
      Submitted s;
      s.traced = tracer.enabled() && jobs.size() % 2 == 0;
      s.decode_t0 = now_sec();
      Request req = parse_request(lines[next++ % lines.size()]);
      s.submit_t0 = now_sec();
      if (req.op == Request::Op::Submit) {
        const MeshService::SubmitResult r =
            service->submit(std::move(req.job), req.priority);
        s.accepted = r.accepted;
        s.id = r.id;
        if (r.accepted) s.rec = service->find(r.id);
      }
      s.submit_t1 = now_sec();
      if (!s.accepted) s.done_t = s.submit_t1;
      jobs.push_back(std::move(s));
      if (!jobs.back().accepted) return false;
      in_flight.push_back(jobs.size() - 1);
      return true;
    };
    while (jobs.size() < kMinJobs || now_sec() - t_run0 < args.seconds) {
      while (in_flight.size() < kInFlight && submit_next()) {
      }
      // Poll the job records' terminal state (an acquire load) so the
      // first job to finish is replaced first, whatever its position.
      bool any = false;
      for (std::size_t k = 0; k < in_flight.size();) {
        Submitted& s = jobs[in_flight[k]];
        if (s.rec->terminal()) {
          s.done_t = now_sec();
          service->wait(s.id);
          in_flight[k] = in_flight.back();
          in_flight.pop_back();
          any = true;
        } else {
          ++k;
        }
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (std::size_t k : in_flight) {
      service->wait(jobs[k].id);
      jobs[k].done_t = now_sec();
    }
  });
  generator.join();
  const PredicateCounters p1 = predicate_counters();
  double t_last = t_run0;
  for (const Submitted& s : jobs) t_last = std::max(t_last, s.done_t);
  rd.run_wall_s = t_last - t_run0;
  service->drain();

  // --- per-job checks and values (after the clock) ---
  const double n = static_cast<double>(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Submitted& s = jobs[i];
    const std::uint64_t id = i + 1;
    JobSample js;
    js.traced = s.traced;
    if (!s.accepted) {
      js.error = "submission refused";
      rd.jobs.push_back(std::move(js));
      continue;
    }
    const JsonValue man = json_parse(s.rec->manifest_json);
    const JsonValue& m = man["metrics"];
    const double tets = m["mesh.tets"].as_double();
    js.ok = s.rec->current_state() == JobState::Done &&
            m["validation.ok"].as_bool() && tets > 0;
    if (!js.ok) {
      js.error = s.rec->error.empty() ? "validation failed or empty mesh"
                                      : s.rec->error;
    }
    const double job_s = s.done_t - s.submit_t0;
    const double mesh_s = s.rec->mesh_sec;
    const double edt_s = man["phases"]["edt"].as_double();
    const double refine_s = man["phases"]["refine"].as_double();
    const double ops = m["refine.operations"].as_double();
    const double rollbacks = m["refine.rollbacks"].as_double();
    const double overhead = m["refine.overhead_sec"].as_double();
    auto& v = js.v;
    v["job_s"] = job_s;
    v["mesh_s"] = mesh_s;
    v["elements_per_s"] = mesh_s > 0 ? tets / mesh_s : 0.0;
    v["hausdorff_vox"] = m["fidelity.hausdorff"].as_double();
    v["max_radius_edge"] = m["quality.max_radius_edge"].as_double();
    v["min_boundary_angle_deg"] =
        m["quality.min_boundary_planar_deg"].as_double();
    v["lattice.interface_vertices"] =
        m["lattice.interface_vertices"].as_double();
    v["core.operations"] = ops;
    v["core.tets"] = tets;
    v["runtime.contention_s"] = m["refine.contention_sec"].as_double();
    v["runtime.loadbalance_s"] = m["refine.loadbalance_sec"].as_double();
    v["runtime.rollback_s"] = m["refine.rollback_sec"].as_double();
    v["runtime.parked_s"] = m["refine.parked_sec"].as_double();
    v["runtime.rollbacks"] = rollbacks;
    v["runtime.steals"] = m["refine.steals_total"].as_double();
    put_runtime_fracs(v, ops, rollbacks, overhead, 2, refine_s);
    // Predicate counters are process-wide: concurrent jobs share them, so
    // each job is credited the run's mean.
    put_predicate_values(v, p0, p1, n);
    v["delaunay.cells_created"] = m["refine.cells_created"].as_double();
    v["serve.edt_cache_hit"] = s.rec->edt_cache_hit ? 1.0 : 0.0;
    if (s.traced) {
      // The job span covers submit -> terminal; queue wait and the run on
      // the executor come from the job record's clock (same monotonic
      // clock as the benchmark's). The EDT and refine phases come from the
      // manifest and are placed back to back from the run's start, so
      // serve.run's self time is the rest of the executor's job (smoothing,
      // reports, validation, outputs).
      tracer.add(id, 0, "serve.decode", s.decode_t0, s.submit_t0);
      const SpanId job = tracer.add(id, 0, "pipeline.job", s.submit_t0,
                                    s.done_t);
      tracer.add(id, job, "serve.submit", s.submit_t0, s.submit_t1);
      const double q0 = s.rec->submit_sec;
      const double q1 = q0 + s.rec->queue_wait_sec;
      tracer.add(id, job, "serve.queue_wait", q0, q1);
      const SpanId run = tracer.add(id, job, "serve.run", q1, q1 + mesh_s);
      tracer.add(id, run, "imaging.edt", q1, q1 + edt_s);
      tracer.add(id, run, "core.refine", q1 + edt_s, q1 + edt_s + refine_s);
      put_span_values(v, tracer, id, job_s);
    }
    rd.jobs.push_back(std::move(js));
  }
  return rd;
}

}  // namespace perfbench
