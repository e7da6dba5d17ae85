// pi2m_fuzz — seeded adversarial fuzzing of the speculative Delaunay kernel
// and the refiner, under the op-log recorder and the invariant auditor.
//
// Each case is a deterministic function of its seed: the seed picks a
// scenario family (adversarial point batches against the raw kernel, or a
// degenerate phantom through the full refiner), a thread count, and a
// hostile CM/LB configuration. The case runs with the operation-log
// recorder on, the final mesh is audited (exact-arithmetic invariants,
// check/auditor.hpp), the recorded log is replayed sequentially, and the
// replay's canonical snapshot must be byte-identical to the concurrent
// run's (check/replay.hpp).
//
// On failure the case dumps a replay bundle to --out:
//   <out>/<case>/oplog.bin     recorded operation log
//   <out>/<case>/snapshot.bin  canonical snapshot of the failing mesh
//   <out>/<case>/box.txt       virtual box (6 doubles, lo then hi)
//   <out>/<case>/manifest.json run manifest (config, counts, errors)
// `pi2m_fuzz --replay <out>/<case>` re-executes the bundle sequentially
// with per-op auditing — the deterministic debugging entry point.
//
// Usage:
//   pi2m_fuzz --corpus N [--start S] [--out DIR]   run seeds S..S+N-1
//   pi2m_fuzz --seed S [--out DIR]                 run one seed
//   pi2m_fuzz --replay DIR                         replay a dumped bundle
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/auditor.hpp"
#include "check/oplog.hpp"
#include "check/replay.hpp"
#include "check/snapshot.hpp"
#include "core/refiner.hpp"
#include "delaunay/operations.hpp"
#include "imaging/phantom.hpp"
#include "telemetry/run_manifest.hpp"

namespace pi2m {
namespace {

struct CaseResult {
  bool ok = true;
  std::string name;
  std::size_t ops = 0;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }
};

// ---------------------------------------------------------------------------
// Adversarial point batches (raw kernel scenarios)
// ---------------------------------------------------------------------------

/// Uniform random points strictly inside the box.
std::vector<Vec3> points_random(std::mt19937_64& rng, const Aabb& box,
                                std::size_t n) {
  std::uniform_real_distribution<double> ux(box.lo.x + 0.5, box.hi.x - 0.5);
  std::uniform_real_distribution<double> uy(box.lo.y + 0.5, box.hi.y - 0.5);
  std::uniform_real_distribution<double> uz(box.lo.z + 0.5, box.hi.z - 0.5);
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back({ux(rng), uy(rng), uz(rng)});
  return pts;
}

/// Batches of *exactly* cospherical points (integer lattice points of equal
/// norm, scaled by powers of two — all coordinates are exact in doubles),
/// mixed with random filler. Forces insphere through its zero cases.
std::vector<Vec3> points_cospherical(std::mt19937_64& rng, const Aabb& box,
                                     std::size_t n) {
  const Vec3 c = box.center();
  // Lattice directions of squared norm 9: permutations/signs of (1,2,2)
  // and (0,0,3). 30 exactly-cospherical points per shell.
  std::vector<Vec3> dirs;
  const int base[2][3] = {{1, 2, 2}, {0, 0, 3}};
  for (const auto& b : base) {
    int perm[3] = {0, 1, 2};
    std::sort(perm, perm + 3);
    do {
      for (int sx = -1; sx <= 1; sx += 2)
        for (int sy = -1; sy <= 1; sy += 2)
          for (int sz = -1; sz <= 1; sz += 2) {
            const Vec3 d{static_cast<double>(sx * b[perm[0]]),
                         static_cast<double>(sy * b[perm[1]]),
                         static_cast<double>(sz * b[perm[2]])};
            if (std::find_if(dirs.begin(), dirs.end(), [&](const Vec3& e) {
                  return e.x == d.x && e.y == d.y && e.z == d.z;
                }) == dirs.end()) {
              dirs.push_back(d);
            }
          }
    } while (std::next_permutation(perm, perm + 3));
  }
  std::vector<Vec3> pts;
  pts.reserve(n);
  // Concentric exactly-cospherical shells at dyadic radii.
  for (double scale = 0.25; scale <= 1.0 && pts.size() < n / 2; scale *= 2.0) {
    for (const Vec3& d : dirs) {
      if (pts.size() >= n / 2) break;
      pts.push_back(c + scale * d);
    }
  }
  const std::vector<Vec3> filler = points_random(rng, box, n - pts.size());
  pts.insert(pts.end(), filler.begin(), filler.end());
  std::shuffle(pts.begin(), pts.end(), rng);
  return pts;
}

/// Integer-lattice points: massively collinear/coplanar (orient3d zeros on
/// every location walk) plus deliberate duplicates (insert must Fail
/// cleanly, never corrupt).
std::vector<Vec3> points_grid(std::mt19937_64& rng, const Aabb& box,
                              std::size_t n) {
  std::vector<Vec3> pts;
  pts.reserve(n + n / 8);
  const int side = static_cast<int>(std::ceil(std::cbrt(static_cast<double>(n))));
  const Vec3 ext = box.extent();
  for (int k = 0; k < side && pts.size() < n; ++k)
    for (int j = 0; j < side && pts.size() < n; ++j)
      for (int i = 0; i < side && pts.size() < n; ++i) {
        pts.push_back({box.lo.x + ext.x * (i + 1.0) / (side + 1.0),
                       box.lo.y + ext.y * (j + 1.0) / (side + 1.0),
                       box.lo.z + ext.z * (k + 1.0) / (side + 1.0)});
      }
  std::uniform_int_distribution<std::size_t> pick(0, pts.size() - 1);
  const std::size_t dupes = pts.size() / 8;
  for (std::size_t i = 0; i < dupes; ++i) pts.push_back(pts[pick(rng)]);
  std::shuffle(pts.begin(), pts.end(), rng);
  return pts;
}

/// Runs a point batch through the raw kernel with `threads` workers doing
/// speculative inserts (bounded retry on Conflict/Stale) and each worker
/// removing a fraction of its own successfully inserted vertices.
void run_kernel_case(const Aabb& box, const std::vector<Vec3>& pts,
                     int threads, unsigned seed, CaseResult& res) {
  DelaunayMesh mesh(box, std::size_t{1} << 18, std::size_t{1} << 21);
  check::begin();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch scratch;
      std::mt19937_64 trng(seed * 1000003ull + static_cast<unsigned>(t));
      std::vector<VertexId> mine;
      CellId hint = any_alive_cell(mesh, 0);
      for (std::size_t i = static_cast<std::size_t>(t); i < pts.size();
           i += static_cast<std::size_t>(threads)) {
        for (int attempt = 0; attempt < 1000; ++attempt) {
          const OpResult r = insert_point(mesh, pts[i], VertexKind::Circumcenter,
                                          hint, t, scratch);
          if (r.status == OpStatus::Success) {
            mine.push_back(r.new_vertex);
            if (!scratch.created.empty()) hint = scratch.created.front();
            break;
          }
          if (r.status == OpStatus::Failed) break;  // duplicate/degenerate
          std::this_thread::yield();  // Conflict or Stale: retry
        }
        // Sparse speculative removals interleaved with the inserts.
        if (!mine.empty() && trng() % 16 == 0) {
          const VertexId v = mine.back();
          for (int attempt = 0; attempt < 1000; ++attempt) {
            const OpResult r = remove_vertex(mesh, v, t, scratch);
            if (r.status == OpStatus::Success) {
              mine.pop_back();
              break;
            }
            if (r.status == OpStatus::Failed) break;  // hull-adjacent etc.
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  check::end();

  const std::vector<check::OpRecord> log = check::snapshot();
  res.ops = log.size();

  check::InvariantAuditor auditor(mesh);
  const check::AuditReport rep = auditor.audit_full();
  if (!rep.ok) {
    for (const std::string& e : rep.errors) res.fail("audit: " + e);
  }

#if PI2M_OPLOG_ENABLED
  const check::MeshSnapshot concurrent = check::snapshot_mesh(mesh);
  check::ReplayOptions ropt;
  ropt.audit_every = 512;
  const check::ReplayResult rr = check::replay_oplog(box, log, ropt);
  if (!rr.ok) {
    res.fail("replay: " + rr.error);
  } else if (!(rr.snapshot == concurrent)) {
    res.fail("replay snapshot diverges from concurrent run (hash " +
             std::to_string(rr.hash) + " vs " +
             std::to_string(check::snapshot_hash(concurrent)) + ")");
  }
#endif
}

// ---------------------------------------------------------------------------
// Degenerate phantoms (full-refiner scenarios)
// ---------------------------------------------------------------------------

/// One-voxel-thin spherical shell: the isosurface oracle sees two surfaces
/// closer together than the sample spacing.
LabeledImage3D phantom_thin_shell(int n) {
  const double half = n / 2.0;
  const double r = 0.6 * half;
  return phantom::from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) {
    const Vec3 d = p - Vec3{half, half, half};
    return std::fabs(norm(d) - r) <= 0.75 ? Label{1} : Label{0};
  });
}

/// Two balls of different labels exactly tangent: a single-point material
/// junction.
LabeledImage3D phantom_touching(int n) {
  const double half = n / 2.0;
  const double r = 0.45 * half;
  const Vec3 c1{half - r, half, half}, c2{half + r, half, half};
  return phantom::from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) {
    if (distance(p, c1) <= r) return Label{1};
    if (distance(p, c2) <= r) return Label{2};
    return Label{0};
  });
}

/// Nested balls labelled {3, 1} with label 2 never used: exercises label
/// bookkeeping against a hole in the label range.
LabeledImage3D phantom_empty_label(int n) {
  const double half = n / 2.0;
  return phantom::from_function(n, n, n, {1, 1, 1}, [&](const Vec3& p) {
    const double d = distance(p, Vec3{half, half, half});
    if (d <= 0.35 * half) return Label{3};
    if (d <= 0.7 * half) return Label{1};
    return Label{0};
  });
}

void run_refiner_case(const LabeledImage3D& img, int threads, CmKind cm,
                      LbKind lb, unsigned seed, CaseResult& res,
                      check::MeshSnapshot* concurrent_out, Aabb* box_out,
                      std::vector<check::OpRecord>* log_out,
                      double delta = 2.5) {
  MeshingOptions opt;
  opt.threads = threads;
  opt.contention_manager = cm;
  opt.load_balancer = lb;
  opt.delta = delta;
  opt.max_vertices = std::size_t{1} << 20;
  opt.max_cells = std::size_t{1} << 22;
  opt.watchdog_sec = 60.0;
  opt.rng_seed = seed;
  opt.audit_final = true;

  Refiner refiner(img, opt);
  check::begin();
  const RefineOutcome out = refiner.refine();
  check::end();

  const std::vector<check::OpRecord> log = check::snapshot();
  res.ops = log.size();
  if (box_out) *box_out = refiner.mesh().box();
  if (log_out) *log_out = log;

  if (!out.completed) {
    res.fail(out.livelocked ? "refine livelocked" : "refine aborted (budget)");
  }
  for (const std::string& e : out.audit_errors) res.fail("audit: " + e);
  if (concurrent_out) *concurrent_out = check::snapshot_mesh(refiner.mesh());

#if PI2M_OPLOG_ENABLED
  const check::MeshSnapshot concurrent = check::snapshot_mesh(refiner.mesh());
  check::ReplayOptions ropt;
  ropt.audit_every = 2048;
  const check::ReplayResult rr =
      check::replay_oplog(refiner.mesh().box(), log, ropt);
  if (!rr.ok) {
    res.fail("replay: " + rr.error);
  } else if (!(rr.snapshot == concurrent)) {
    res.fail("replay snapshot diverges from concurrent run (hash " +
             std::to_string(rr.hash) + " vs " +
             std::to_string(check::snapshot_hash(concurrent)) + ")");
  }
#endif
}

// ---------------------------------------------------------------------------
// Case dispatch, bundle dump, replay mode
// ---------------------------------------------------------------------------

constexpr int kScenarioCount = 8;

// Scenario 7 runs at a δ small enough for the solid ellipsoid to have a
// deep-interior band, so the hybrid BCC fill (protected lattice seeds, rule
// tag 7 in the op log, interface-blocked R2/R4/R5) is exercised under
// concurrency + replay like every other refiner path. At this δ the band
// has ~6k interface seeds, enough for the densest BRIO round to be
// inserted concurrently at 2 and 4 threads.
constexpr double kEllipsoidDelta = 0.35;

const char* scenario_name(int s) {
  switch (s) {
    case 0: return "kernel-random";
    case 1: return "kernel-cospherical";
    case 2: return "kernel-grid";
    case 3: return "phantom-thin-shell";
    case 4: return "phantom-touching";
    case 5: return "phantom-empty-label";
    case 6: return "phantom-blobs";
    case 7: return "phantom-ellipsoid";
  }
  return "?";
}

bool save_box(const Aabb& box, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << box.lo.x << ' ' << box.lo.y << ' ' << box.lo.z << '\n'
      << box.hi.x << ' ' << box.hi.y << ' ' << box.hi.z << '\n';
  return out.good();
}

bool load_box(const std::string& path, Aabb& box) {
  std::ifstream in(path);
  return static_cast<bool>(in >> box.lo.x >> box.lo.y >> box.lo.z >>
                           box.hi.x >> box.hi.y >> box.hi.z);
}

void dump_bundle(const std::string& dir, const CaseResult& res,
                 const Aabb& box, const std::vector<check::OpRecord>& log,
                 const check::MeshSnapshot& snap, int threads, CmKind cm,
                 LbKind lb, unsigned seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  check::save_oplog(log, dir + "/oplog.bin");
  check::save_snapshot(snap, dir + "/snapshot.bin");
  save_box(box, dir + "/box.txt");

  telemetry::RunManifest m;
  m.tool = "pi2m_fuzz";
  m.set_config("case", res.name);
  m.set_config("seed", static_cast<int>(seed));
  m.set_config("threads", threads);
  m.set_config("cm", cm_name(cm));
  m.set_config("lb", lb_name(lb));
  m.metrics.set("fuzz.ops", static_cast<double>(res.ops));
  m.metrics.set("fuzz.violations", static_cast<double>(res.errors.size()));
  std::ostringstream notes;
  for (const std::string& e : res.errors) notes << e << "\n";
  m.notes = notes.str();
  (void)m.write(dir + "/manifest.json");
  std::fprintf(stderr, "  bundle dumped to %s\n", dir.c_str());
}

CaseResult run_case(unsigned seed, const std::string& out_dir) {
  const int scenario = static_cast<int>(seed) % kScenarioCount;
  constexpr int kThreadCycle[3] = {1, 2, 4};
  const int threads = kThreadCycle[(seed / kScenarioCount) % 3];
  const CmKind cm = static_cast<CmKind>(seed % 4);
  const LbKind lb = (seed / 2) % 2 == 0 ? LbKind::HWS : LbKind::RWS;

  CaseResult res;
  {
    std::ostringstream name;
    name << scenario_name(scenario) << "-seed" << seed << "-t" << threads;
    res.name = name.str();
  }
  std::mt19937_64 rng(seed);
  const Aabb box{{0, 0, 0}, {32, 32, 32}};
  Aabb used_box = box;
  check::MeshSnapshot snap;
  std::vector<check::OpRecord> log;

  switch (scenario) {
    case 0:
      run_kernel_case(box, points_random(rng, box, 3000), threads, seed, res);
      break;
    case 1:
      run_kernel_case(box, points_cospherical(rng, box, 2000), threads, seed,
                      res);
      break;
    case 2:
      run_kernel_case(box, points_grid(rng, box, 1728), threads, seed, res);
      break;
    case 3:
      run_refiner_case(phantom_thin_shell(24), threads, cm, lb, seed, res,
                       &snap, &used_box, &log);
      break;
    case 4:
      run_refiner_case(phantom_touching(24), threads, cm, lb, seed, res,
                       &snap, &used_box, &log);
      break;
    case 5:
      run_refiner_case(phantom_empty_label(24), threads, cm, lb, seed, res,
                       &snap, &used_box, &log);
      break;
    case 6:
      run_refiner_case(phantom::random_blobs(24, seed), threads, cm, lb, seed,
                       res, &snap, &used_box, &log);
      break;
    case 7:
      run_refiner_case(phantom::ellipsoid(32), threads, cm, lb, seed, res,
                       &snap, &used_box, &log, kEllipsoidDelta);
      break;
  }

  std::printf("%-40s %s  (%zu ops, %d threads)\n", res.name.c_str(),
              res.ok ? "ok" : "FAIL", res.ops, threads);
  if (!res.ok) {
    for (const std::string& e : res.errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    if (!out_dir.empty() && !log.empty()) {
      dump_bundle(out_dir + "/" + res.name, res, used_box, log, snap, threads,
                  cm, lb, seed);
    }
  }
  return res;
}

int replay_bundle(const std::string& dir) {
  Aabb box;
  if (!load_box(dir + "/box.txt", box)) {
    std::fprintf(stderr, "cannot read %s/box.txt\n", dir.c_str());
    return 2;
  }
  std::string err;
  const auto log = check::load_oplog(dir + "/oplog.bin", &err);
  if (!log) {
    std::fprintf(stderr, "cannot load oplog: %s\n", err.c_str());
    return 2;
  }
  std::printf("replaying %zu ops from %s\n", log->size(), dir.c_str());

  check::ReplayOptions ropt;
  ropt.audit_every = 64;  // tight auditing: this is the debugging path
  const check::ReplayResult rr = check::replay_oplog(box, *log, ropt);
  if (!rr.ok) {
    std::fprintf(stderr, "replay FAILED: %s\n", rr.error.c_str());
    if (rr.failed_op >= 0) {
      std::fprintf(stderr, "  first divergence at op index %lld\n",
                   static_cast<long long>(rr.failed_op));
    }
    return 1;
  }

  check::MeshSnapshot recorded;
  if (load_snapshot(dir + "/snapshot.bin", recorded)) {
    if (rr.snapshot == recorded) {
      std::printf("replay matches recorded snapshot byte-for-byte (hash %llu)\n",
                  static_cast<unsigned long long>(rr.hash));
    } else {
      std::fprintf(stderr,
                   "replay clean but DIVERGES from recorded snapshot "
                   "(replay %zu vertices / %zu cells, recorded %zu / %zu)\n",
                   rr.snapshot.vertices.size(), rr.snapshot.cells.size(),
                   recorded.vertices.size(), recorded.cells.size());
      return 1;
    }
  } else {
    std::printf("replay clean (%zu ops applied; no recorded snapshot to "
                "compare)\n",
                rr.applied);
  }
  return 0;
}

}  // namespace
}  // namespace pi2m

int main(int argc, char** argv) {
  using namespace pi2m;

  unsigned corpus = 0, start = 0;
  bool single = false;
  unsigned seed = 0;
  std::string out_dir = "fuzz-out";
  std::string replay_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--corpus") {
      corpus = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--start") {
      start = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--seed") {
      single = true;
      seed = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--out") {
      out_dir = next();
    } else if (a == "--replay") {
      replay_dir = next();
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage:\n"
          "  pi2m_fuzz --corpus N [--start S] [--out DIR]\n"
          "  pi2m_fuzz --seed S [--out DIR]\n"
          "  pi2m_fuzz --replay BUNDLE_DIR\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }

  if (!replay_dir.empty()) return replay_bundle(replay_dir);

#if !PI2M_OPLOG_ENABLED
  std::printf("note: built with PI2M_OPLOG=OFF — replay comparison disabled, "
              "running audits only\n");
#endif

  if (single) {
    return run_case(seed, out_dir).ok ? 0 : 1;
  }
  if (corpus == 0) {
    std::fprintf(stderr, "nothing to do (try --corpus 27 or --help)\n");
    return 2;
  }
  unsigned failures = 0;
  for (unsigned s = start; s < start + corpus; ++s) {
    if (!run_case(s, out_dir).ok) ++failures;
  }
  std::printf("%u/%u cases passed\n", corpus - failures, corpus);
  return failures == 0 ? 0 : 1;
}
