// Property-based sweeps over the core invariants: randomized operation
// sequences against exact reference computations.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <thread>

#include "core/spatial_grid.hpp"
#include "delaunay/local_dt.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "geometry/tetra.hpp"
#include "imaging/edt.hpp"
#include "imaging/phantom.hpp"
#include "metrics/hausdorff.hpp"
#include "predicates/expansion.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

// --- expansion arithmetic vs 128-bit integer reference -------------------

class ExpansionExactness : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExpansionExactness, IntegerLatticeOpsAreExact) {
  // On integer-valued doubles every intermediate is exactly representable
  // in __int128, giving a bit-exact reference for +,-,*.
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<long long> u(-(1ll << 25), 1ll << 25);
  for (int iter = 0; iter < 500; ++iter) {
    const long long a = u(rng), b = u(rng), c = u(rng), d = u(rng);
    using exact::Expansion;
    const Expansion e = (Expansion(double(a)) * Expansion(double(b))) -
                        (Expansion(double(c)) * Expansion(double(d)));
    const __int128 ref = static_cast<__int128>(a) * b -
                         static_cast<__int128>(c) * d;
    const int ref_sign = ref > 0 ? 1 : (ref < 0 ? -1 : 0);
    EXPECT_EQ(e.sign(), ref_sign) << a << "*" << b << "-" << c << "*" << d;
    // The estimate reproduces the exact value when it fits in a double.
    if (ref > -(static_cast<__int128>(1) << 52) &&
        ref < (static_cast<__int128>(1) << 52)) {
      EXPECT_EQ(e.estimate(), static_cast<double>(static_cast<long long>(ref)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionExactness,
                         ::testing::Values(11u, 12u, 13u, 14u));

// --- mixed insert/remove fuzz against full Delaunay verification ---------

class MixedOpsFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(MixedOpsFuzz, SequentialRandomProgramKeepsInvariants) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(0.05, 0.95);
  std::uniform_int_distribution<int> coin(0, 9);

  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  std::vector<VertexId> alive;
  int inserts = 0, removes = 0;
  for (int step = 0; step < 300; ++step) {
    if (!alive.empty() && coin(rng) < 3) {
      std::uniform_int_distribution<std::size_t> pick(0, alive.size() - 1);
      const std::size_t i = pick(rng);
      if (remove_vertex(mesh, alive[i], 0, s).status == OpStatus::Success) {
        alive[i] = alive.back();
        alive.pop_back();
        ++removes;
      }
    } else {
      const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                      VertexKind::Circumcenter, 0, 0, s);
      if (r.status == OpStatus::Success) {
        alive.push_back(r.new_vertex);
        ++inserts;
      }
    }
  }
  EXPECT_GT(inserts, 150);
  EXPECT_GT(removes, 20);
  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    ASSERT_EQ(mesh.vertex(v).owner.load(), -1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedOpsFuzz,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u));

class ParallelMixedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMixedFuzz, ThreadSweepKeepsInvariants) {
  const int threads = GetParam();
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&mesh, t, threads] {
      OpScratch s;
      std::mt19937 rng(900 + t);
      std::uniform_real_distribution<double> u(0.05, 0.95);
      std::vector<VertexId> mine;
      for (int i = 0; i < 600 / threads + 50; ++i) {
        if (!mine.empty() && i % 5 == 4) {
          if (remove_vertex(mesh, mine.back(), t, s).status ==
              OpStatus::Success) {
            mine.pop_back();
          }
        } else {
          const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                          VertexKind::Circumcenter, 0, t, s);
          if (r.status == OpStatus::Success) mine.push_back(r.new_vertex);
        }
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelMixedFuzz,
                         ::testing::Values(2, 3, 4, 6, 8));

// --- locate after churn ----------------------------------------------------

TEST(LocateProperty, AlwaysFindsContainingCellAfterChurn) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.05, 0.95);
  std::vector<VertexId> alive;
  for (int i = 0; i < 200; ++i) {
    const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                    VertexKind::Circumcenter, 0, 0, s);
    if (r.status == OpStatus::Success) alive.push_back(r.new_vertex);
  }
  for (std::size_t i = 0; i < alive.size(); i += 2) {
    remove_vertex(mesh, alive[i], 0, s);
  }
  const CellId start = any_alive_cell(mesh, 0);
  for (int i = 0; i < 300; ++i) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    const LocateResult loc = locate_point(mesh, p, start);
    ASSERT_TRUE(loc.ok);
    ASSERT_TRUE(mesh.cell_alive(loc.cell));
    const auto pos = mesh.positions(loc.cell);
    for (int f = 0; f < 4; ++f) {
      EXPECT_GE(orient3d(pos[kFaceOf[f][0]], pos[kFaceOf[f][1]],
                         pos[kFaceOf[f][2]], p),
                0);
    }
  }
}

// --- spatial grid vs brute force ------------------------------------------

class GridVsBrute : public ::testing::TestWithParam<unsigned> {};

TEST_P(GridVsBrute, QueriesMatchBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(0.0, 50.0);
  const Aabb box{{0, 0, 0}, {50, 50, 50}};
  SpatialHashGrid grid(box, 3.0);
  std::vector<std::pair<Vec3, VertexId>> reference;

  for (int step = 0; step < 600; ++step) {
    const int action = step % 10;
    if (action < 6 || reference.empty()) {
      const Vec3 p{u(rng), u(rng), u(rng)};
      const VertexId id = static_cast<VertexId>(step);
      grid.insert(p, id);
      reference.emplace_back(p, id);
    } else if (action < 8) {
      std::uniform_int_distribution<std::size_t> pick(0, reference.size() - 1);
      const std::size_t i = pick(rng);
      EXPECT_TRUE(grid.remove(reference[i].first, reference[i].second));
      reference[i] = reference.back();
      reference.pop_back();
    } else {
      const Vec3 q{u(rng), u(rng), u(rng)};
      std::uniform_real_distribution<double> rad(0.1, 3.0);
      const double r = rad(rng);
      bool brute = false;
      std::size_t brute_count = 0;
      for (const auto& [p, id] : reference) {
        if (distance2(p, q) < r * r) {
          brute = true;
          ++brute_count;
        }
      }
      EXPECT_EQ(grid.any_within(q, r), brute);
      std::vector<std::pair<Vec3, VertexId>> got;
      grid.collect_within(q, r, got);
      EXPECT_EQ(got.size(), brute_count);
    }
  }
  EXPECT_EQ(grid.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridVsBrute,
                         ::testing::Values(21u, 22u, 23u, 24u));

// --- point-triangle distance vs dense sampling ------------------------------

TEST(PointTriangleProperty, MatchesDenseSampling) {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(-2, 2);
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 a{u(rng), u(rng), u(rng)}, b{u(rng), u(rng), u(rng)},
        c{u(rng), u(rng), u(rng)}, p{u(rng), u(rng), u(rng)};
    const double got = point_triangle_distance(p, a, b, c);
    double brute = std::numeric_limits<double>::infinity();
    const int n = 60;
    for (int i = 0; i <= n; ++i) {
      for (int j = 0; j <= n - i; ++j) {
        const double s = double(i) / n, t = double(j) / n;
        brute = std::min(brute, distance(p, a + s * (b - a) + t * (c - a)));
      }
    }
    EXPECT_LE(got, brute + 1e-9);           // never larger than any sample
    EXPECT_GE(got, brute - 0.2);            // sampling is a coarse upper bound
  }
}

// --- EDT exactness with anisotropic spacing ---------------------------------

class AnisoEdt : public ::testing::TestWithParam<unsigned> {};

TEST_P(AnisoEdt, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  const int n = 10;
  std::uniform_real_distribution<double> sp(0.3, 3.0);
  LabeledImage3D img(n, n, n, {sp(rng), sp(rng), sp(rng)});
  std::uniform_int_distribution<int> bit(0, 5);
  for (auto& l : img.raw()) l = bit(rng) == 0 ? 1 : 0;
  const FeatureTransform ft = FeatureTransform::compute(img, 2);
  if (!ft.has_surface()) return;
  for (int z = 0; z < n; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const Voxel v{x, y, z};
        const Voxel f = ft.nearest_surface_voxel(v);
        ASSERT_GE(f.x, 0);
        const double got = distance(img.voxel_center(v), img.voxel_center(f));
        double best = std::numeric_limits<double>::infinity();
        for (int zz = 0; zz < n; ++zz)
          for (int yy = 0; yy < n; ++yy)
            for (int xx = 0; xx < n; ++xx)
              if (img.is_surface_voxel({xx, yy, zz}))
                best = std::min(best, distance(img.voxel_center(v),
                                               img.voxel_center({xx, yy, zz})));
        ASSERT_NEAR(got, best, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnisoEdt, ::testing::Values(41u, 42u, 43u));

// --- incremental LocalDelaunay API ------------------------------------------

TEST(LocalDelaunayIncremental, AddPointsAndVolume) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  LocalDelaunay dt(box);
  ASSERT_TRUE(dt.ok());
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  int added = 0;
  for (int i = 0; i < 100; ++i) {
    const int idx = dt.add_point({u(rng), u(rng), u(rng)});
    if (idx >= 0) {
      ++added;
      EXPECT_EQ(idx, 4 + added - 1);  // dense indices after the 4 aux corners
      EXPECT_FALSE(dt.last_created().empty());
    }
  }
  EXPECT_GT(added, 95);
  // Duplicate fails and leaves the structure intact.
  const int before = static_cast<int>(dt.tets().size());
  Vec3 dup = dt.point(4);
  EXPECT_EQ(dt.add_point(dup), -1);
  EXPECT_EQ(static_cast<int>(dt.tets().size()), before);
}

}  // namespace
}  // namespace pi2m
