// Conservativeness of the O(1) EDT prefilters and coverage for the
// remaining small utilities. The prefilters gate the expensive oracle
// queries in rule classification: a false negative would make the refiner
// silently skip required fidelity work, so these properties are
// load-bearing for correctness, not just performance.
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"
#include "runtime/stats.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {
namespace {

class FilterConservativeness : public ::testing::TestWithParam<unsigned> {};

TEST_P(FilterConservativeness, BallFilterNeverFalseNegative) {
  const LabeledImage3D img = phantom::random_blobs(24, GetParam(), 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(GetParam() * 31 + 7);
  std::uniform_real_distribution<double> u(-2.0, 26.0);
  std::uniform_real_distribution<double> rad(0.1, 12.0);
  int exact_hits = 0;
  for (int i = 0; i < 400; ++i) {
    const Vec3 c{u(rng), u(rng), u(rng)};
    const double r = rad(rng);
    const bool exact = oracle.ball_intersects_surface(c, r);
    if (exact) {
      ++exact_hits;
      // The cheap filter must never reject a ball the exact test accepts.
      EXPECT_TRUE(oracle.ball_may_intersect_surface(c, r))
          << "false negative at (" << c.x << "," << c.y << "," << c.z
          << ") r=" << r;
    }
  }
  EXPECT_GT(exact_hits, 30);  // the sweep actually exercised the property
}

TEST_P(FilterConservativeness, SegmentFilterNeverFalseNegative) {
  const LabeledImage3D img = phantom::random_blobs(24, GetParam() + 100, 3, 2);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(GetParam() * 17 + 3);
  std::uniform_real_distribution<double> u(0.0, 24.0);
  int crossings = 0;
  for (int i = 0; i < 400; ++i) {
    const Vec3 a{u(rng), u(rng), u(rng)}, b{u(rng), u(rng), u(rng)};
    if (oracle.segment_surface_intersection(a, b).has_value()) {
      ++crossings;
      EXPECT_TRUE(oracle.segment_may_intersect_surface(a, b))
          << "false negative for segment";
    }
  }
  EXPECT_GT(crossings, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterConservativeness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(FilterLowerBound, NeverExceedsTrueDistance) {
  const LabeledImage3D img = phantom::concentric_shells(24);
  const IsosurfaceOracle oracle(img, 1);
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> u(0.0, 23.0);
  for (int i = 0; i < 300; ++i) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    const auto q = oracle.closest_surface_point(p);
    ASSERT_TRUE(q.has_value());
    // d_lb is a *lower* bound on the distance to the surface; since the
    // oracle's surface point is itself an approximation, allow its small
    // quantization slack.
    EXPECT_LE(oracle.surface_distance_lower_bound(p),
              distance(p, *q) + 1e-9);
  }
}

// --- fast-path insertion API -------------------------------------------------

TEST(InsertInConflict, StaleGenerationRejected) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  const std::uint32_t gen0 = mesh.cell_gen(0);
  ASSERT_EQ(insert_point(mesh, {0.4, 0.4, 0.4}, VertexKind::Circumcenter, 0, 0,
                         s).status,
            OpStatus::Success);
  // Cell 0 was retired by the insertion: a conflict-start with the stale
  // generation must come back Stale, not corrupt anything.
  const OpResult r = insert_point_in_conflict(
      mesh, {0.6, 0.6, 0.6}, VertexKind::Circumcenter, 0, gen0, 0, s);
  EXPECT_EQ(r.status, OpStatus::Stale);
  EXPECT_EQ(mesh.check_integrity(true), "");
}

TEST(InsertInConflict, WrongConflictClaimFails) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  // Point far outside cell 0's circumsphere? All initial cells' circumspheres
  // cover the whole box, so instead claim conflict with a *duplicate* of an
  // existing vertex (exactly on the sphere -> not in conflict).
  const OpResult r = insert_point_in_conflict(mesh, {0, 0, 1}, /* box corner */
                                              VertexKind::Circumcenter, 0,
                                              mesh.cell_gen(0), 0, s);
  EXPECT_EQ(r.status, OpStatus::Failed);
  EXPECT_EQ(mesh.check_integrity(true), "");
}

TEST(InsertInConflict, MatchesWalkingPathResults) {
  // Both APIs must produce Delaunay triangulations of the same point set.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  std::vector<Vec3> pts(120);
  for (Vec3& p : pts) p = {u(rng), u(rng), u(rng)};

  DelaunayMesh a({{0, 0, 0}, {1, 1, 1}});
  DelaunayMesh b({{0, 0, 0}, {1, 1, 1}});
  // One scratch per mesh: the scratch's cell free-list is mesh-specific.
  OpScratch sa, sb;
  std::size_t ok_a = 0, ok_b = 0;
  for (const Vec3& p : pts) {
    ok_a += insert_point(a, p, VertexKind::Circumcenter, 0, 0, sa).status ==
            OpStatus::Success;
    // Conflict-seed with the cell containing p (found via locate): any
    // conflicting cell works.
    const LocateResult loc = locate_point(b, p, any_alive_cell(b, 0));
    ASSERT_TRUE(loc.ok);
    ok_b += insert_point_in_conflict(b, p, VertexKind::Circumcenter, loc.cell,
                                     b.cell_gen(loc.cell), 0, sb).status ==
            OpStatus::Success;
  }
  EXPECT_EQ(ok_a, ok_b);
  EXPECT_EQ(a.check_integrity(true), "");
  EXPECT_EQ(b.check_integrity(true), "");
  EXPECT_EQ(a.count_alive_cells(), b.count_alive_cells());
}

// --- small utilities ---------------------------------------------------------

TEST(ParallelBlocks, CoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_blocks(hits.size(), threads, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  // Empty range: no calls with non-empty blocks.
  parallel_blocks(0, 4, [](std::size_t b, std::size_t e) {
    ASSERT_EQ(b, e);
  });
}

TEST(StatsAggregate, SumsAcrossThreads) {
  std::vector<ThreadStats> stats(3);
  stats[0].operations.store(10);
  stats[1].operations.store(20);
  stats[2].rollbacks.store(5);
  stats[0].add_contention(1.0);
  stats[1].add_loadbalance(0.5);
  stats[2].add_rollback_time(0.25);
  stats[1].steals_inter_blade.store(7);
  const StatsTotals t = aggregate(stats);
  EXPECT_EQ(t.operations, 30u);
  EXPECT_EQ(t.rollbacks, 5u);
  EXPECT_NEAR(t.contention_sec, 1.0, 1e-6);
  EXPECT_NEAR(t.loadbalance_sec, 0.5, 1e-6);
  EXPECT_NEAR(t.rollback_sec, 0.25, 1e-6);
  EXPECT_NEAR(t.total_overhead_sec(), 1.75, 1e-6);
  EXPECT_EQ(t.total_steals(), 7u);
}

}  // namespace
}  // namespace pi2m
