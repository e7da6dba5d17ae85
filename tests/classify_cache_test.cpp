// Generation-tagged geometry cache (delaunay/geom_cache.hpp): unit tests of
// the tag protocol (staleness is detected, never trusted; older generations
// never displace newer entries) and the load-bearing coherence property —
// a classification served through the cache equals a fresh classification,
// including after randomized concurrent insert/remove churn that recycles
// cell slots under the cache's feet.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/refiner.hpp"  // MeshingOptions
#include "core/rules.hpp"
#include "core/spatial_grid.hpp"
#include "delaunay/geom_cache.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"
#include "op_retry.hpp"

namespace pi2m {
namespace {

CellGeomCache::CoreView sample_view() {
  CellGeomCache::CoreView v;
  v.cs.valid = true;
  v.cs.center = {1.25, -2.5, 3.75};
  v.cs.radius2 = 6.0625;
  v.surf_lb = -0.375;
  v.inside = true;
  return v;
}

TEST(GeomCache, RoundTripAndGenerationMismatch) {
  CellGeomCache cache(1024);
  const CellGeomCache::CoreView in = sample_view();
  cache.store(7, 3, in);

  CellGeomCache::CoreView out;
  ASSERT_TRUE(cache.load(7, 3, out));
  EXPECT_TRUE(out.cs.valid);
  EXPECT_EQ(out.cs.center.x, in.cs.center.x);
  EXPECT_EQ(out.cs.center.y, in.cs.center.y);
  EXPECT_EQ(out.cs.center.z, in.cs.center.z);
  EXPECT_EQ(out.cs.radius2, in.cs.radius2);
  EXPECT_EQ(out.surf_lb, in.surf_lb);
  EXPECT_TRUE(out.inside);

  // A reader presenting any other generation must miss: stale entries are
  // detected, not consumed.
  EXPECT_FALSE(cache.load(7, 5, out));
  EXPECT_FALSE(cache.load(7, 1, out));
  // Untouched slots are empty.
  EXPECT_FALSE(cache.load(8, 3, out));
}

TEST(GeomCache, OlderGenerationNeverDisplacesNewer) {
  CellGeomCache cache(1024);
  CellGeomCache::CoreView newer = sample_view();
  cache.store(42, 9, newer);

  CellGeomCache::CoreView older = sample_view();
  older.cs.center = {99.0, 99.0, 99.0};
  older.inside = false;
  cache.store(42, 7, older);  // laggard thread with a stale generation

  CellGeomCache::CoreView out;
  EXPECT_FALSE(cache.load(42, 7, out));
  ASSERT_TRUE(cache.load(42, 9, out));
  EXPECT_EQ(out.cs.center.x, newer.cs.center.x);
  EXPECT_TRUE(out.inside);

  // Same generation re-store is a harmless no-op as well.
  cache.store(42, 9, older);
  ASSERT_TRUE(cache.load(42, 9, out));
  EXPECT_EQ(out.cs.center.x, newer.cs.center.x);
}

TEST(GeomCache, InvalidCircumsphereRoundTrips) {
  CellGeomCache cache(64);
  CellGeomCache::CoreView degenerate;  // cs.valid == false
  cache.store(3, 5, degenerate);
  CellGeomCache::CoreView out = sample_view();
  ASSERT_TRUE(cache.load(3, 5, out));
  EXPECT_FALSE(out.cs.valid);
}

TEST(GeomCache, ClosestPointMemoRoundTrip) {
  CellGeomCache cache(1024);
  const Vec3 p{0.5, 1.5, -2.5};
  cache.store_closest(11, 3, p);

  std::optional<Vec3> out;
  ASSERT_TRUE(cache.load_closest(11, 3, out));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->x, p.x);
  EXPECT_EQ(out->y, p.y);
  EXPECT_EQ(out->z, p.z);

  // nullopt (no surface) is a cacheable answer, distinct from "absent".
  cache.store_closest(12, 3, std::nullopt);
  out = p;
  ASSERT_TRUE(cache.load_closest(12, 3, out));
  EXPECT_FALSE(out.has_value());

  EXPECT_FALSE(cache.load_closest(11, 5, out));  // generation mismatch
  EXPECT_FALSE(cache.load_closest(13, 3, out));  // untouched slot

  // Monotonicity holds for the memo word too.
  cache.store_closest(11, 1, Vec3{9, 9, 9});
  ASSERT_TRUE(cache.load_closest(11, 3, out));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->x, p.x);
}

TEST(GeomCache, CountersAccumulate) {
  CellGeomCache cache(256);
  CellGeomCache::CoreView v = sample_view();
  std::optional<Vec3> csp;
  cache.store(1, 3, v);
  cache.store_closest(1, 3, Vec3{1, 2, 3});
  EXPECT_TRUE(cache.load(1, 3, v, /*tid=*/0));
  EXPECT_FALSE(cache.load(1, 5, v, /*tid=*/1));
  EXPECT_TRUE(cache.load_closest(1, 3, csp, /*tid=*/2));
  EXPECT_FALSE(cache.load_closest(2, 3, csp, /*tid=*/3));

  const CellGeomCache::CounterTotals t = cache.totals();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.csp_hits, 1u);
  EXPECT_EQ(t.csp_misses, 1u);
}

/// Seqlock stress: one writer publishes rising generations of a few slots,
/// each payload a function of its generation; readers chase the newest
/// published generation and check every hit against that function, so a
/// torn or mixed read (payload words from two generations under one tag)
/// fails. Under ThreadSanitizer every payload access is checked as well.
TEST(GeomCache, ConcurrentReadsNeverServeTornEntries) {
  constexpr CellId kSlots = 4;
  constexpr std::uint32_t kLastGen = 100000;
  const auto view_of = [](std::uint32_t gen) {
    const double g = gen;
    CellGeomCache::CoreView v;
    v.cs.valid = gen % 3 != 0;
    v.cs.center = {g, 2.0 * g + 1.0, -g};
    v.cs.radius2 = g * g;
    v.surf_lb = 0.5 * g;
    v.inside = gen % 2 != 0;
    return v;
  };
  const auto csp_of = [](std::uint32_t gen) -> std::optional<Vec3> {
    if (gen % 5 == 0) return std::nullopt;
    const double g = gen;
    return Vec3{-g, g + 0.25, 3.0 * g};
  };

  CellGeomCache cache(64);
  std::array<std::atomic<std::uint32_t>, kSlots> published{};
  std::atomic<bool> writing{true};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      CellGeomCache::CoreView v;
      std::optional<Vec3> p;
      for (CellId c = 0; writing.load(std::memory_order_acquire);
           c = (c + 1) % kSlots) {
        const std::uint32_t gen = published[c].load(std::memory_order_acquire);
        if (gen == 0) continue;
        if (cache.load(c, gen, v, r)) {
          const CellGeomCache::CoreView want = view_of(gen);
          if (v.cs.valid != want.cs.valid || v.inside != want.inside ||
              v.cs.center.x != want.cs.center.x ||
              v.cs.center.y != want.cs.center.y ||
              v.cs.center.z != want.cs.center.z ||
              v.cs.radius2 != want.cs.radius2 || v.surf_lb != want.surf_lb) {
            torn.fetch_add(1);
          }
        }
        if (cache.load_closest(c, gen, p, r)) {
          const std::optional<Vec3> want = csp_of(gen);
          if (p.has_value() != want.has_value() ||
              (p && (p->x != want->x || p->y != want->y || p->z != want->z))) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::uint32_t gen = 1; gen <= kLastGen; ++gen) {
    const CellId c = gen % kSlots;
    cache.store(c, gen, view_of(gen));
    cache.store_closest(c, gen, csp_of(gen));
    published[c].store(gen, std::memory_order_release);
  }
  writing.store(false, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // The newest generation of every slot is served once the writer is done.
  for (CellId c = 0; c < kSlots; ++c) {
    const std::uint32_t gen = published[c].load();
    CellGeomCache::CoreView v;
    ASSERT_TRUE(cache.load(c, gen, v));
    EXPECT_EQ(v.cs.center.y, view_of(gen).cs.center.y);
    std::optional<Vec3> p;
    ASSERT_TRUE(cache.load_closest(c, gen, p));
    EXPECT_EQ(p.has_value(), csp_of(gen).has_value());
  }
}

bool same_classification(const Classification& a, const Classification& b) {
  if (a.rule != b.rule) return false;
  if (a.rule == Rule::None) return true;
  return a.kind == b.kind && a.point.x == b.point.x && a.point.y == b.point.y &&
         a.point.z == b.point.z;
}

/// Coherence under concurrent slot recycling: worker threads churn the mesh
/// with randomized inserts/removes while classifying their fresh cells
/// through a shared cache (populating it under races); afterwards, on the
/// quiescent mesh, the cached classification of every alive cell must be
/// bit-identical to a cache-free classification. The iso grid stays empty so
/// classification is a pure function of cell + image (deterministic).
class CacheCoherence : public ::testing::TestWithParam<int> {};

TEST_P(CacheCoherence, CachedClassifyMatchesFresh) {
  const int kThreads = GetParam();
  const LabeledImage3D img = phantom::random_blobs(20, 77, 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  const Aabb box = img.bounds().inflated(6.0);
  DelaunayMesh mesh(box);
  SpatialHashGrid iso_grid(box, 4.0);
  MeshingOptions opt;
  opt.delta = 2.0;
  CellGeomCache cache(mesh.cell_capacity());

  // Every planned operation is retried until it commits or fails for good
  // (tests/op_retry.hpp), so the mesh reaches the same vertex count however
  // the threads were scheduled.
  constexpr int kOps = 400;  // per thread; every 3rd removes (i % 3 == 2)
  std::atomic<int> ins{0}, ins_failed{0}, rem{0}, rem_failed{0};
  std::atomic<bool> hung{false};
  const auto deadline = std::chrono::steady_clock::now() + test::kHangGuard;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(900 + t);
      std::uniform_real_distribution<double> u(1.0, 19.0);
      std::vector<VertexId> mine;
      CellId hint = 0;
      for (int i = 0; i < kOps; ++i) {
        if (!mine.empty() && i % 3 == 2) {
          const VertexId victim = mine.back();
          mine.pop_back();
          const OpResult r = test::retry_until_done(
              [&] { return remove_vertex(mesh, victim, t, s); }, deadline);
          if (r.status == OpStatus::Failed) {
            rem_failed.fetch_add(1);  // degenerate or hull-adjacent ball
            continue;
          }
          if (r.status != OpStatus::Success) {
            hung.store(true);
            return;
          }
          rem.fetch_add(1);
        } else {
          const Vec3 p{u(rng), u(rng), u(rng)};
          const OpResult r = test::retry_until_done(
              [&] {
                return insert_point(mesh, p, VertexKind::Circumcenter, hint,
                                    t, s);
              },
              deadline);
          if (r.status == OpStatus::Failed) {
            ins_failed.fetch_add(1);
            continue;
          }
          if (r.status != OpStatus::Success) {
            hung.store(true);
            return;
          }
          ins.fetch_add(1);
          mine.push_back(r.new_vertex);
          hint = s.created.front();
        }
        // Classify the freshly created cells through the shared cache:
        // this races with other threads retiring/recycling those slots,
        // which is exactly what the generation tags must survive.
        for (const CellId c : s.created) {
          (void)classify_cell(mesh, c, oracle, iso_grid, opt, nullptr, &cache,
                              t);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  ASSERT_FALSE(hung.load()) << "an operation was still retrying at the guard";
  ASSERT_EQ(mesh.check_integrity(/*check_delaunay=*/false), "");
  // Every insert commits (general position), so each thread removes on
  // exactly the i % 3 == 2 steps and the mesh ends with a fixed number of
  // inserted vertices, minus the removals that were refused.
  EXPECT_EQ(ins_failed.load(), 0);
  EXPECT_EQ(ins.load(), kThreads * (kOps - kOps / 3));
  EXPECT_EQ(rem.load() + rem_failed.load(), kThreads * (kOps / 3));
  const std::size_t live = test::live_inner_vertices(mesh);
  ASSERT_EQ(live, static_cast<std::size_t>(ins.load() - rem.load()));

  std::size_t checked = 0;
  mesh.for_each_alive_cell([&](CellId c) {
    const Classification fresh =
        classify_cell(mesh, c, oracle, iso_grid, opt, nullptr);
    // First cached pass may hit entries published during the churn; the
    // second is guaranteed warm. Both must agree with the fresh result.
    const Classification cached1 =
        classify_cell(mesh, c, oracle, iso_grid, opt, nullptr, &cache, 0);
    const Classification cached2 =
        classify_cell(mesh, c, oracle, iso_grid, opt, nullptr, &cache, 0);
    EXPECT_TRUE(same_classification(cached1, fresh))
        << "cell " << c << ": cached rule " << to_string(cached1.rule)
        << " vs fresh " << to_string(fresh.rule);
    EXPECT_TRUE(same_classification(cached2, fresh))
        << "cell " << c << " (warm pass)";
    ++checked;
  });
  // Every alive cell was compared, and there are at least as many as the
  // inserted vertices (each has >= 4 incident cells, each cell 4 corners).
  EXPECT_EQ(checked, mesh.count_alive_cells());
  EXPECT_GE(checked, live);

  const CellGeomCache::CounterTotals totals = cache.totals();
  EXPECT_GT(totals.hits + totals.misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, CacheCoherence,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace pi2m
