// Microbenchmarks (google-benchmark): the kernels whose cost structure
// determines PI2M's single-threaded rate — exact predicates (filtered vs
// exact path), EDT construction, oracle queries, Bowyer-Watson insertion
// throughput, spatial grid operations, and vertex removal.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/refiner.hpp"  // MeshingOptions
#include "core/rules.hpp"
#include "core/spatial_grid.hpp"
#include "delaunay/geom_cache.hpp"
#include "delaunay/local_dt.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/edt.hpp"
#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"
#include "predicates/predicates.hpp"
#include "runtime/mpsc_inbox.hpp"
#include "runtime/topology.hpp"
#include "runtime/workstealing.hpp"
#include "telemetry/run_manifest.hpp"

namespace {

using namespace pi2m;

std::vector<Vec3> random_points(std::size_t n, unsigned seed,
                                double lo = 0.02, double hi = 0.98) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(lo, hi);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts) p = {u(rng), u(rng), u(rng)};
  return pts;
}

// Pool size for the predicate benches. Power of two so the sliding-window
// index wraps with an AND instead of a hardware divide: a 64-bit `div`
// against the runtime `size()` costs more than the stage-A filter itself
// and would swamp the per-candidate comparison.
constexpr std::size_t kPredPoolMask = 4096 - 1;

void BM_Orient3dFiltered(benchmark::State& state) {
  const auto pts = random_points(kPredPoolMask + 1, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const Vec3& a = pts[i & kPredPoolMask];
    const Vec3& b = pts[(i + 1) & kPredPoolMask];
    const Vec3& c = pts[(i + 2) & kPredPoolMask];
    const Vec3& d = pts[(i + 3) & kPredPoolMask];
    benchmark::DoNotOptimize(orient3d(a, b, c, d));
    ++i;
  }
}
BENCHMARK(BM_Orient3dFiltered);

void BM_Orient3dExactPath(benchmark::State& state) {
  // Coplanar inputs defeat the stage-A static filter on every call. Before
  // the adaptive ladder this meant the full expansion-arithmetic fallback;
  // now stage B certifies the zero (exact translations -> zero tails).
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0}, d{0.3, 0.4, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(orient3d(a, b, c, d));
  }
}
BENCHMARK(BM_Orient3dExactPath);

void BM_Orient3dStageD(benchmark::State& state) {
  // Reference cost of the final full-exact stage, called directly.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0}, d{0.3, 0.4, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(orient3d_exact(a, b, c, d));
  }
}
BENCHMARK(BM_Orient3dStageD);

void BM_InsphereFiltered(benchmark::State& state) {
  const auto pts = random_points(kPredPoolMask + 1, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(insphere(
        pts[i & kPredPoolMask], pts[(i + 1) & kPredPoolMask],
        pts[(i + 2) & kPredPoolMask], pts[(i + 3) & kPredPoolMask],
        pts[(i + 4) & kPredPoolMask]));
    ++i;
  }
}
BENCHMARK(BM_InsphereFiltered);

void BM_InsphereExactPath(benchmark::State& state) {
  // Cospherical cube corners defeat the stage-A filter every call; the
  // adaptive stage B now certifies the zero without dynamic expansions.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 0, 1}, d{0, 1, 0}, e{1, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(insphere(a, b, c, d, e));
  }
}
BENCHMARK(BM_InsphereExactPath);

void BM_InsphereStageD(benchmark::State& state) {
  // Reference cost of the final full-exact stage, called directly.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 0, 1}, d{0, 1, 0}, e{1, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(insphere_exact(a, b, c, d, e));
  }
}
BENCHMARK(BM_InsphereStageD);

/// Shared triangulation for the locate-walk bench: 8k random points so
/// walks are long enough for the cell-header cache misses to dominate.
struct LocateScenario {
  DelaunayMesh mesh{{{0, 0, 0}, {1, 1, 1}}};
  std::vector<Vec3> queries = random_points(4096, 9);
  CellId hint = 0;

  LocateScenario() {
    OpScratch scratch;
    for (const Vec3& p : random_points(1u << 13, 10)) {
      const OpResult r =
          insert_point(mesh, p, VertexKind::Circumcenter, hint, 0, scratch);
      if (r.status == OpStatus::Success) hint = scratch.created.front();
    }
  }
};

LocateScenario& locate_scenario() {
  static LocateScenario s;
  return s;
}

void BM_LocateWalk(benchmark::State& state) {
  // One walk at a time: every step's cell-header load is a serialized miss.
  LocateScenario& s = locate_scenario();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        locate_point(s.mesh, s.queries[i % s.queries.size()], s.hint));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocateWalk);

void BM_EdtConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const LabeledImage3D img = phantom::abdominal(n, n, n);
  for (auto _ : state) {
    const FeatureTransform ft = FeatureTransform::compute(img, 1);
    benchmark::DoNotOptimize(ft.has_surface());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(img.voxel_count()));
}
BENCHMARK(BM_EdtConstruction)->Arg(32)->Arg(64);

void BM_OracleClosestPoint(benchmark::State& state) {
  // Voxel-DDA walk (the default production path).
  const LabeledImage3D img = phantom::abdominal(48, 48, 48);
  const IsosurfaceOracle oracle(img, 1);
  const auto pts = random_points(1024, 3, 5.0, 43.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.closest_surface_point(pts[i % 1024]));
    ++i;
  }
}
BENCHMARK(BM_OracleClosestPoint);

void BM_OracleClosestPointRef(benchmark::State& state) {
  // Reference scalar-sampling walk, same queries (A/B baseline).
  const LabeledImage3D img = phantom::abdominal(48, 48, 48);
  const IsosurfaceOracle oracle(img, 1);
  const auto pts = random_points(1024, 3, 5.0, 43.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.closest_surface_point_reference(pts[i % 1024]));
    ++i;
  }
}
BENCHMARK(BM_OracleClosestPointRef);

void BM_SegmentIntersect(benchmark::State& state) {
  const LabeledImage3D img = phantom::abdominal(48, 48, 48);
  const IsosurfaceOracle oracle(img, 1);
  const auto pts = random_points(2048, 8, 5.0, 43.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.segment_surface_intersection(pts[i % 2048], pts[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_SegmentIntersect);

void BM_SegmentIntersectRef(benchmark::State& state) {
  const LabeledImage3D img = phantom::abdominal(48, 48, 48);
  const IsosurfaceOracle oracle(img, 1);
  const auto pts = random_points(2048, 8, 5.0, 43.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.segment_surface_intersection_reference(
        pts[i % 2048], pts[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_SegmentIntersectRef);

/// Shared scenario for the classify benches: a triangulation of random
/// points over an abdominal phantom, classified against an empty iso grid
/// (every near-surface cell exercises the full R1 walk path, like the
/// early refinement phase does).
struct ClassifyScenario {
  LabeledImage3D img = phantom::abdominal(32, 32, 32);
  IsosurfaceOracle oracle{img, 1};
  DelaunayMesh mesh;
  SpatialHashGrid iso_grid;
  MeshingOptions opt;
  std::vector<CellId> cells;

  ClassifyScenario()
      : mesh(img.bounds().inflated(8.0)),
        iso_grid(img.bounds().inflated(8.0), 4.0) {
    opt.delta = 2.0;
    OpScratch scratch;
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> u(1.0, 31.0);
    for (int i = 0; i < 2000; ++i) {
      const Vec3 p{u(rng), u(rng), u(rng)};
      insert_point(mesh, p, VertexKind::Circumcenter, 0, 0, scratch);
    }
    mesh.for_each_alive_cell([&](CellId c) { cells.push_back(c); });
  }
};

ClassifyScenario& classify_scenario() {
  static ClassifyScenario s;
  return s;
}

void BM_ClassifyCell(benchmark::State& state) {
  // Warm generation-tagged cache: the steady state of pops/retries/R3 scans.
  ClassifyScenario& s = classify_scenario();
  CellGeomCache cache(s.mesh.cell_capacity());
  for (const CellId c : s.cells) {
    benchmark::DoNotOptimize(
        classify_cell(s.mesh, c, s.oracle, s.iso_grid, s.opt, nullptr, &cache,
                      0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_cell(s.mesh, s.cells[i % s.cells.size()],
                                           s.oracle, s.iso_grid, s.opt, nullptr,
                                           &cache, 0));
    ++i;
  }
}
BENCHMARK(BM_ClassifyCell);

void BM_ClassifyCellUncached(benchmark::State& state) {
  // Baseline: every classify recomputes circumspheres/EDT/inside from
  // scratch (the pre-cache behaviour).
  ClassifyScenario& s = classify_scenario();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_cell(s.mesh, s.cells[i % s.cells.size()], s.oracle,
                      s.iso_grid, s.opt, nullptr));
    ++i;
  }
}
BENCHMARK(BM_ClassifyCellUncached);

void BM_DelaunayInsertion(benchmark::State& state) {
  // Throughput of the full speculative insertion path (single thread).
  const auto pts = random_points(1u << 14, 4);
  for (auto _ : state) {
    state.PauseTiming();
    DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
    OpScratch scratch;
    state.ResumeTiming();
    CellId hint = 0;
    for (const Vec3& p : pts) {
      const OpResult r =
          insert_point(mesh, p, VertexKind::Circumcenter, hint, 0, scratch);
      if (r.status == OpStatus::Success) hint = scratch.created.front();
    }
    benchmark::DoNotOptimize(hint);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_DelaunayInsertion)->Unit(benchmark::kMillisecond);

void BM_DelaunayRemoval(benchmark::State& state) {
  const auto pts = random_points(2000, 5);
  for (auto _ : state) {
    state.PauseTiming();
    DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
    OpScratch scratch;
    std::vector<VertexId> inserted;
    for (const Vec3& p : pts) {
      const OpResult r =
          insert_point(mesh, p, VertexKind::Circumcenter, 0, 0, scratch);
      if (r.status == OpStatus::Success) inserted.push_back(r.new_vertex);
    }
    state.ResumeTiming();
    int removed = 0;
    for (std::size_t i = 0; i < inserted.size(); i += 4) {
      if (remove_vertex(mesh, inserted[i], 0, scratch).status ==
          OpStatus::Success) {
        ++removed;
      }
    }
    benchmark::DoNotOptimize(removed);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_DelaunayRemoval)->Unit(benchmark::kMillisecond);

void BM_SpatialGridInsertQuery(benchmark::State& state) {
  const Aabb box{{0, 0, 0}, {100, 100, 100}};
  const auto pts = random_points(1u << 14, 6, 1.0, 99.0);
  for (auto _ : state) {
    SpatialHashGrid grid(box, 2.0);
    VertexId id = 0;
    for (const Vec3& p : pts) {
      if (!grid.any_within(p, 1.0)) grid.insert(p, id++);
    }
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_SpatialGridInsertQuery)->Unit(benchmark::kMillisecond);

void BM_LocalDelaunayBuild(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    const LocalDelaunay dt(pts);
    benchmark::DoNotOptimize(dt.ok());
  }
}
BENCHMARK(BM_LocalDelaunayBuild)->Arg(16)->Arg(32)->Arg(64);

/// Same layout as the refiner's PelEntry: what one inbox hand-off moves.
struct HandoffEntry {
  std::uint32_t cell;
  std::uint32_t gen;
  bool near_surface;
};

constexpr std::size_t kHandoffBatch = 64;
constexpr std::size_t kHandoffCapacity = 2048;

std::vector<HandoffEntry> handoff_batch() {
  std::vector<HandoffEntry> batch(kHandoffBatch);
  for (std::size_t i = 0; i < kHandoffBatch; ++i) {
    batch[i] = {static_cast<std::uint32_t>(i), 1, false};
  }
  return batch;
}

/// Shared inbox for the contended hand-off bench (thread 0 = beggar
/// draining its inbox, thread 1 = giver publishing batches). A full inbox
/// makes the giver yield and retry a few times, then drop the batch (the
/// refiner keeps the batch locally in that case).
MpscRing<HandoffEntry>& mpsc_inbox() {
  static MpscRing<HandoffEntry> s(kHandoffCapacity);
  return s;
}

void BM_InboxHandoffMpsc(benchmark::State& state) {
  // The lock-free hand-off under contention: one batched CAS publication
  // by the giver, lock-free drain by the beggar.
  MpscRing<HandoffEntry>& ring = mpsc_inbox();
  if (state.thread_index() == 0) {
    std::size_t n = 0;
    for (auto _ : state) {
      ring.drain([&](const HandoffEntry& e) {
        ++n;
        benchmark::DoNotOptimize(e.cell);
      });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
  } else {
    const auto batch = handoff_batch();
    for (auto _ : state) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        if (ring.try_push_batch(batch.data(), batch.size())) break;
        std::this_thread::yield();
      }
    }
  }
}
BENCHMARK(BM_InboxHandoffMpsc)->Threads(2)->UseRealTime();

/// Poll-to-drain latency of one idle episode, as the begging thread
/// experiences it: the beggar polls its empty inbox with a relaxed empty()
/// check, then a batch of 64 arrives and is drained. 64 polls per episode
/// is conservative — a real idle episode spins hundreds of iterations.
void BM_IdlePollDrainMpsc(benchmark::State& state) {
  constexpr int kPolls = 64;
  const auto batch = handoff_batch();
  MpscRing<HandoffEntry> ring(kHandoffCapacity);
  std::vector<HandoffEntry> drained;
  for (auto _ : state) {
    for (int i = 0; i < kPolls; ++i) benchmark::DoNotOptimize(ring.empty());
    ring.try_push_batch(batch.data(), batch.size());
    drained.clear();
    ring.drain([&](const HandoffEntry& e) { drained.push_back(e); });
    benchmark::DoNotOptimize(drained.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHandoffBatch));
}
BENCHMARK(BM_IdlePollDrainMpsc);

/// One complete hand-off cycle on the work-distribution critical path, at
/// realistic beggar occupancy (7 of 8 threads begging): giver pops the
/// most local beggar and publishes a batch of 64 into its inbox; the
/// beggar polls its inbox, drains it, cancels its begging registration and
/// re-enqueues.
void BM_HandoffCycle(benchmark::State& state) {
  const Topology topo(8, {2, 2});
  const auto lb = make_load_balancer(LbKind::HWS, topo);
  for (int tid = 1; tid < 8; ++tid) lb->enqueue_beggar(tid);
  const auto batch = handoff_batch();
  MpscRing<HandoffEntry> ring(kHandoffCapacity);
  std::vector<HandoffEntry> drained;
  StealLevel level;
  for (auto _ : state) {
    const int beggar = lb->pop_beggar(0, &level);
    benchmark::DoNotOptimize(lb->still_begging(beggar));
    ring.try_push_batch(batch.data(), batch.size());
    benchmark::DoNotOptimize(ring.empty());
    drained.clear();
    ring.drain([&](const HandoffEntry& e) { drained.push_back(e); });
    benchmark::DoNotOptimize(drained.data());
    lb->cancel(beggar);
    lb->enqueue_beggar(beggar);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHandoffBatch));
}
BENCHMARK(BM_HandoffCycle);

void BM_BeggarChurn(benchmark::State& state) {
  // Single-thread churn through the HWS begging lists: the enqueue /
  // pop / cancel cycle every idle episode pays. The virtual Blacklight
  // topology (8 threads, 2 cores/socket, 2 sockets/blade) exercises all
  // three levels.
  const Topology topo(8, {2, 2});
  const auto lb = make_load_balancer(LbKind::HWS, topo);
  StealLevel level;
  for (auto _ : state) {
    for (int tid = 1; tid < 8; ++tid) lb->enqueue_beggar(tid);
    benchmark::DoNotOptimize(lb->pop_beggar(0, &level));
    for (int tid = 1; tid < 8; ++tid) lb->cancel(tid);
    benchmark::DoNotOptimize(lb->any_beggar());
  }
  state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_BeggarChurn);

/// Console reporting plus a MetricsRegistry capture of every benchmark's
/// per-iteration CPU time, for the --manifest run-manifest output.
class ManifestReporter final : public benchmark::ConsoleReporter {
 public:
  explicit ManifestReporter(telemetry::MetricsRegistry* reg) : reg_(reg) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.iterations <= 0) continue;
      const double ns_per_iter =
          r.cpu_accumulated_time / static_cast<double>(r.iterations) * 1e9;
      reg_->set("bench." + r.benchmark_name() + ".cpu_ns_per_iter",
                ns_per_iter);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  telemetry::MetricsRegistry* reg_;
};

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so `--manifest PATH` /
// `--manifest=PATH` can be stripped before google-benchmark parses the
// command line, and the captured timings written as a pi2m run manifest.
int main(int argc, char** argv) {
  std::string manifest_path;
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (a.rfind("--manifest=", 0) == 0) {
      manifest_path = a.substr(std::string("--manifest=").size());
    } else {
      pass.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(pass.size());
  benchmark::Initialize(&pass_argc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass.data())) return 1;

  pi2m::telemetry::MetricsRegistry reg;
  ManifestReporter reporter(&reg);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!manifest_path.empty()) {
    pi2m::telemetry::RunManifest man;
    man.tool = "bench_micro";
    man.metrics = reg;
    if (!man.write(manifest_path)) {
      std::fprintf(stderr, "failed to write %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", manifest_path.c_str());
  }
  return 0;
}
