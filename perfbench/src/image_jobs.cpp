// W1-W3: one full meshing job at a time on the `abdominal` phantom.
//
// Every job times the library's public calls from outside:
//   IsosurfaceOracle (EDT) -> Refiner construction -> Refiner::refine ->
//   extract_mesh -> [W1: evaluate_quality, hausdorff_distance,
//   validate_mesh, io::write_vtk] -> io::save_mesh
// W2/W3 compute the quality, fidelity and validation checks after the
// job's clock stops.
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include <unistd.h>

#include "bench.hpp"
#include "core/pi2m.hpp"
#include "core/validate.hpp"
#include "imaging/phantom.hpp"
#include "io/mesh_serialize.hpp"
#include "io/writers.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"
#include "predicates/predicates.hpp"
#include "runtime/stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace pi2m;

namespace {

constexpr int kBaseSize = 96;
/// The seed grows the grid by 0..kMaxPad background voxels at the far end
/// of each axis. The anatomy keeps its voxels and world position, so the
/// work stays comparable across seeds. (Padding the near end instead moves
/// the anatomy against the lattice anchor, which switches the hybrid
/// Hausdorff defect on or off per seed; see README.md.)
constexpr int kMaxPad = 3;
constexpr double kDelta = 0.8;
constexpr int kMinJobs = 3;
constexpr int kSetupRepeats = 3;

struct ImageConfig {
  InteriorFill interior;
  int threads;
  bool full_post;      ///< W1: reports, validation and .vtk inside the clock
  bool deterministic;  ///< W3: .p2m bytes must repeat exactly
};

/// The image workloads by name. BENCHMARK.json lists the same names; the
/// binary refuses a spec naming a workload this table lacks.
const std::map<std::string, ImageConfig>& image_configs() {
  static const std::map<std::string, ImageConfig> kConfigs = {
      {"hybrid-job-4t", {InteriorFill::Lattice, 4, true, false}},
      {"delaunay-mesh-4t", {InteriorFill::Delaunay, 4, false, false}},
      {"delaunay-mesh-1t", {InteriorFill::Delaunay, 1, false, true}},
  };
  return kConfigs;
}

/// Quality, fidelity and validation of one output mesh.
struct Verdict {
  QualityReport quality;
  HausdorffResult hausdorff;
  MeshValidation validation;
};

/// The three checks are independent; outside the clock they run side by
/// side so a run spends its time on timed jobs.
Verdict check_mesh(const TetMesh& mesh, const IsosurfaceOracle& oracle) {
  auto q = std::async(std::launch::async,
                      [&] { return evaluate_quality(mesh); });
  auto h = std::async(std::launch::async,
                      [&] { return hausdorff_distance(mesh, oracle, 2); });
  Verdict v;
  v.validation = validate_mesh(mesh);
  v.quality = q.get();
  v.hausdorff = h.get();
  return v;
}

/// W3 state: the first job's .p2m hash and checks. A later job whose bytes
/// hash the same wrote the same mesh, so its checks are the first job's.
struct Determinism {
  std::optional<std::uint64_t> hash;
  std::string stored_error;  ///< the hash differs from an earlier run's
  Verdict verdict;
};

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

/// The .p2m hash every run of this seed and this binary must reproduce.
/// The first run records it; later runs compare against it. Returns why the
/// hash does not match, or an empty string.
std::string stored_hash_error(const Args& args, std::uint64_t hash) {
  const std::uint64_t exe = fnv1a(read_file("/proc/self/exe"));
  const fs::path dir = fs::path(args.out_dir) / "p2m_hashes";
  fs::create_directories(dir);
  const fs::path file =
      dir / (std::to_string(args.seed) + "-" + std::to_string(exe) + ".txt");
  const std::string stored = read_file(file.string());
  const std::string mine = std::to_string(hash);
  if (stored.empty()) {
    std::ofstream(file) << mine;
    return {};
  }
  if (stored == mine) return {};
  return "p2m hash " + mine + " differs from earlier run's " + stored;
}

struct JobContext {
  const Args& args;
  ImageConfig cfg;
  const LabeledImage3D& img;
  RefinerOptions ropt;
  fs::path dir;  ///< scratch directory for the written meshes
};

/// One job on `ctx.img`, with every per-job value filled in. `checks` is
/// false only for the warm-up job; `det` is non-null on W3.
JobSample run_job(const JobContext& ctx, std::uint64_t id, Tracer& tr,
                  bool checks, Determinism* det) {
  const ImageConfig& cfg = ctx.cfg;
  const std::string vtk = (ctx.dir / "job.vtk").string();
  const std::string p2m = (ctx.dir / "job.p2m").string();
  JobSample s;
  s.traced = tr.enabled();

  const double t0 = now_sec();
  double mesh_s = 0.0, job_s = 0.0;
  TetMesh mesh;
  RefineOutcome out;
  std::shared_ptr<const IsosurfaceOracle> oracle;
  PredicateCounters p0{}, p1{};
  std::optional<Verdict> verdict;
  bool wrote = true;
  {
    Span job(tr, id, 0, "pipeline.job");
    p0 = predicate_counters();
    {
      Span sp(tr, id, job.id(), "imaging.edt");
      oracle = std::make_shared<const IsosurfaceOracle>(ctx.img, cfg.threads);
    }
    std::unique_ptr<Refiner> refiner;
    {
      Span sp(tr, id, job.id(), "core.refiner_init");
      refiner = std::make_unique<Refiner>(ctx.img, ctx.ropt, oracle);
    }
    {
      Span sp(tr, id, job.id(), "core.refine");
      const double r0 = now_sec();
      out = refiner->refine();
      // The lattice phases run first inside refine(); their durations come
      // from the RefineOutcome.
      if (out.lattice_fill_sec > 0 || out.lattice_seed_sec > 0) {
        const double f1 = r0 + out.lattice_fill_sec;
        tr.add(id, sp.id(), "lattice.fill", r0, f1);
        tr.add(id, sp.id(), "lattice.seed", f1, f1 + out.lattice_seed_sec);
      }
    }
    {
      Span sp(tr, id, job.id(), "core.extract");
      mesh = extract_mesh(refiner->mesh(), *oracle, cfg.threads,
                          refiner->lattice());
    }
    mesh_s = now_sec() - t0;
    p1 = predicate_counters();
    {
      Span sp(tr, id, job.id(), "core.release");
      refiner.reset();
    }
    if (cfg.full_post) {
      verdict.emplace();
      {
        Span sp(tr, id, job.id(), "metrics.quality");
        verdict->quality = evaluate_quality(mesh);
      }
      {
        Span sp(tr, id, job.id(), "metrics.hausdorff");
        verdict->hausdorff = hausdorff_distance(mesh, *oracle, 2);
      }
      {
        Span sp(tr, id, job.id(), "core.validate");
        verdict->validation = validate_mesh(mesh);
      }
      {
        Span sp(tr, id, job.id(), "io.write_vtk");
        wrote = io::write_vtk(mesh, vtk) && wrote;
      }
    }
    {
      Span sp(tr, id, job.id(), "io.write_p2m");
      wrote = io::save_mesh(mesh, p2m) && wrote;
    }
    job_s = now_sec() - t0;
  }
  auto& v = s.v;
  v["job_s"] = job_s;
  if (!checks) return s;

  // --- checks (outside the clock for W2/W3) ---
  std::string hash_error;
  if (det != nullptr) {
    const std::uint64_t hash = fnv1a(read_file(p2m));
    if (!det->hash) {
      det->verdict = check_mesh(mesh, *oracle);
      det->hash = hash;
      det->stored_error = stored_hash_error(ctx.args, hash);
    }
    if (hash == *det->hash) {
      verdict = det->verdict;
      hash_error = det->stored_error;
    } else {
      verdict = check_mesh(mesh, *oracle);
      hash_error = "p2m bytes differ from the run's first job";
    }
  } else if (!verdict) {
    verdict = check_mesh(mesh, *oracle);
  }
  if (!out.completed) {
    s.error = "refinement did not complete";
  } else if (mesh.num_tets() == 0) {
    s.error = "empty mesh";
  } else if (!verdict->validation.ok) {
    s.error = "validate_mesh: " + (verdict->validation.errors.empty()
                                       ? std::string("not ok")
                                       : verdict->validation.errors[0]);
  } else if (!wrote || file_bytes(p2m) == 0) {
    s.error = "writing the mesh failed";
  } else {
    s.error = hash_error;
  }
  s.ok = s.error.empty();

  // --- per-job values ---
  const double tets = static_cast<double>(mesh.num_tets());
  const double refine_s =
      out.wall_sec - out.lattice_fill_sec - out.lattice_seed_sec;
  const StatsTotals& t = out.totals;
  v["mesh_s"] = mesh_s;
  v["elements_per_s"] = mesh_s > 0 ? tets / mesh_s : 0.0;
  v["hausdorff_vox"] = verdict->hausdorff.symmetric() / ctx.img.min_spacing();
  v["max_radius_edge"] = verdict->quality.max_radius_edge;
  v["min_boundary_angle_deg"] = verdict->quality.min_boundary_planar_deg;
  v["lattice.interface_vertices"] = static_cast<double>(out.lattice_seeds);
  v["lattice.seed_us_per_vertex"] =
      out.lattice_seeds > 0
          ? out.lattice_seed_sec * 1e6 / static_cast<double>(out.lattice_seeds)
          : 0.0;
  v["core.operations"] = static_cast<double>(t.operations);
  v["core.tets"] = tets;
  v["runtime.contention_s"] = t.contention_sec;
  v["runtime.loadbalance_s"] = t.loadbalance_sec;
  v["runtime.rollback_s"] = t.rollback_sec;
  v["runtime.parked_s"] = t.parked_sec;
  v["runtime.rollbacks"] = static_cast<double>(t.rollbacks);
  v["runtime.steals"] = static_cast<double>(t.total_steals());
  put_runtime_fracs(v, static_cast<double>(t.operations),
                    static_cast<double>(t.rollbacks), t.total_overhead_sec(),
                    cfg.threads, refine_s);
  put_predicate_values(v, p0, p1, 1.0);
  v["delaunay.cells_created"] = static_cast<double>(t.cells_created);
  v["io.bytes_written"] = static_cast<double>(
      file_bytes(p2m) + (cfg.full_post ? file_bytes(vtk) : 0));
  if (s.traced) put_span_values(v, tr, id, job_s);
  return s;
}

}  // namespace

bool is_image_workload(const std::string& name) {
  return image_configs().count(name) != 0;
}

RunData run_image_workload(const Args& args, Tracer& tracer) {
  const ImageConfig cfg = image_configs().at(args.workload);
  RunData rd;

  // --- inputs from the seed: abdominal anatomy, jittered grid ---
  std::mt19937 rng(args.seed);
  std::uniform_int_distribution<int> pad(0, kMaxPad);
  const int nx = kBaseSize + pad(rng);
  const int ny = kBaseSize + pad(rng);
  const int nz = kBaseSize + pad(rng);

  std::vector<double> setups;
  LabeledImage3D img;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_sec();
    const LabeledImage3D body =
        phantom::abdominal(kBaseSize, kBaseSize, kBaseSize);
    img = LabeledImage3D(nx, ny, nz);
    for (int z = 0; z < kBaseSize; ++z) {
      for (int y = 0; y < kBaseSize; ++y) {
        for (int x = 0; x < kBaseSize; ++x) {
          img.at({x, y, z}) = body.at({x, y, z});
        }
      }
    }
    setups.push_back(now_sec() - t0);
  }
  rd.setup_s = median(setups);
  rd.inputs = "abdominal 96^3 in a " + std::to_string(nx) + "x" +
              std::to_string(ny) + "x" + std::to_string(nz) +
              " grid, delta=0.8, interior=" + interior_name(cfg.interior);
  rd.layout = "1 process, 1 job at a time, " + std::to_string(cfg.threads) +
              " refinement worker(s)";

  MeshingOptions mo;
  mo.delta = kDelta;
  mo.threads = cfg.threads;
  mo.interior = cfg.interior;
  const JobContext ctx{
      args, cfg, img, to_refiner_options(mo),
      fs::path(args.out_dir) / ("scratch-" + std::to_string(::getpid()))};
  fs::create_directories(ctx.dir);

  // Warm-up: one untimed job first, so thread start-up, lazy
  // initialisation and the allocator's first growth are paid in set-up.
  Tracer untraced(false);
  {
    const double t0 = now_sec();
    run_job(ctx, 0, untraced, false, nullptr);
    rd.setup_s += now_sec() - t0;
  }

  Determinism det;
  const double t_run0 = now_sec();
  for (std::uint64_t id = 1;; ++id) {
    if (id > kMinJobs && now_sec() - t_run0 >= args.seconds) break;
    // The traced run alternates traced and untraced jobs so the tracing
    // overhead is measured inside one process.
    const bool traced = tracer.enabled() && id % 2 == 1;
    JobSample s = run_job(ctx, id, traced ? tracer : untraced, true,
                          cfg.deterministic ? &det : nullptr);
    rd.jobs.push_back(std::move(s));
  }
  // One job at a time: the run's throughput is one job per median job
  // time. A single stalled job then moves job_p90_s, not the throughput
  // (a sum of 4-9 job times swung by up to 40% with one 4.8 s stall).
  std::vector<double> job_s;
  for (const JobSample& j : rd.jobs) job_s.push_back(j.v.at("job_s"));
  rd.run_wall_s = static_cast<double>(job_s.size()) * median(job_s);
  std::error_code ec;
  fs::remove_all(ctx.dir, ec);
  return rd;
}

}  // namespace perfbench
