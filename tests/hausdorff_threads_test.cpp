// Exactness and thread-count independence of the Hausdorff estimate. Both
// sampling loops run on the oracle's thread budget; the surface->mesh pass
// searches a triangle grid and drops a point as soon as a triangle lies
// within its thread's running maximum. Both distances must equal, bit for
// bit, a brute-force oracle that tests every surface point against every
// boundary triangle, at any thread count (run under TSan/ASan via the
// `sanitize` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/pi2m.hpp"
#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"
#include "metrics/hausdorff.hpp"

namespace pi2m {
namespace {

/// Both directions with no grid and no early exit, on one thread.
HausdorffResult brute_force_hausdorff(const TetMesh& mesh,
                                      const IsosurfaceOracle& oracle, int n) {
  HausdorffResult out;
  if (mesh.boundary_tris.empty()) return out;
  for (const auto& f : mesh.boundary_tris) {
    const Vec3& a = mesh.points[f[0]];
    const Vec3& b = mesh.points[f[1]];
    const Vec3& c = mesh.points[f[2]];
    for (int i = 0; i <= n; ++i) {
      for (int j = 0; j <= n - i; ++j) {
        const double u = static_cast<double>(i) / n;
        const double v = static_cast<double>(j) / n;
        const Vec3 p = a + u * (b - a) + v * (c - a);
        const auto q = oracle.closest_surface_point(p);
        if (q) {
          out.mesh_to_surface = std::max(out.mesh_to_surface, distance(p, *q));
        }
      }
    }
  }
  const LabeledImage3D& img = oracle.image();
  for (int z = 0; z < img.nz(); ++z) {
    for (int y = 0; y < img.ny(); ++y) {
      for (int x = 0; x < img.nx(); ++x) {
        if (!img.is_surface_voxel({x, y, z})) continue;
        const auto q =
            oracle.closest_surface_point(img.voxel_center({x, y, z}));
        if (!q) continue;
        double d = std::numeric_limits<double>::infinity();
        for (const auto& f : mesh.boundary_tris) {
          d = std::min(d, point_triangle_distance(*q, mesh.points[f[0]],
                                                  mesh.points[f[1]],
                                                  mesh.points[f[2]]));
        }
        out.surface_to_mesh = std::max(out.surface_to_mesh, d);
      }
    }
  }
  return out;
}

/// hausdorff_distance at 1..4 oracle threads equals the brute force.
void expect_exact(const TetMesh& mesh, const LabeledImage3D& img) {
  const HausdorffResult want =
      brute_force_hausdorff(mesh, IsosurfaceOracle(img, 1), 2);
  EXPECT_GT(want.mesh_to_surface, 0.0);
  EXPECT_GT(want.surface_to_mesh, 0.0);
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const HausdorffResult h =
        hausdorff_distance(mesh, IsosurfaceOracle(img, threads), 2);
    EXPECT_EQ(h.mesh_to_surface, want.mesh_to_surface);
    EXPECT_EQ(h.surface_to_mesh, want.surface_to_mesh);
    EXPECT_GT(h.triangle_tests, 0u);
  }
}

MeshingResult mesh_of(const LabeledImage3D& img, InteriorFill interior) {
  MeshingOptions opt;
  opt.delta = 1.0;
  opt.threads = 2;
  opt.interior = interior;
  return mesh_image(img, opt);
}

TEST(HausdorffThreads, OracleKeepsItsThreadBudget) {
  const LabeledImage3D img = phantom::ball(12, 0.7);
  EXPECT_EQ(IsosurfaceOracle(img).threads(), 1);
  EXPECT_EQ(IsosurfaceOracle(img, 4).threads(), 4);
  EXPECT_EQ(IsosurfaceOracle(img, 0).threads(), 1);
  EXPECT_EQ(IsosurfaceOracle(img, -3).threads(), 1);
}

TEST(HausdorffThreads, BitwiseEqualAcrossOracleThreadCounts) {
  const LabeledImage3D img = phantom::ellipsoid(40);
  const MeshingResult res = mesh_of(img, InteriorFill::Lattice);
  ASSERT_TRUE(res.ok());
  ASSERT_GT(res.outcome.lattice_tets, 0u);
  expect_exact(res.mesh, img);
}

TEST(HausdorffExact, MultiLabelKneeMatchesBruteForce) {
  const LabeledImage3D img = phantom::knee(32, 32, 32);
  const MeshingResult res = mesh_of(img, InteriorFill::Delaunay);
  ASSERT_TRUE(res.ok());
  expect_exact(res.mesh, img);
}

TEST(HausdorffExact, ZeroAreaTrianglesMatchBruteForce) {
  const LabeledImage3D img = phantom::ball(24, 0.6);
  MeshingResult res = mesh_of(img, InteriorFill::Delaunay);
  ASSERT_TRUE(res.ok());
  TetMesh& m = res.mesh;
  // Every 5th boundary triangle gets a coincident-vertex twin and a
  // collinear twin through a new midpoint vertex.
  const std::size_t nb = m.boundary_tris.size();
  for (std::size_t i = 0; i < nb; i += 5) {
    const auto f = m.boundary_tris[i];
    m.boundary_tris.push_back({f[0], f[0], f[1]});
    const auto mid = static_cast<std::uint32_t>(m.points.size());
    m.points.push_back(0.5 * (m.points[f[1]] + m.points[f[2]]));
    m.point_kinds.push_back(VertexKind::Isosurface);
    m.boundary_tris.push_back({f[1], mid, f[2]});
  }
  // And some of the originals collapse to their first edge.
  for (std::size_t i = 2; i < nb; i += 11) {
    m.boundary_tris[i][2] = m.boundary_tris[i][1];
  }
  expect_exact(m, img);
}

TEST(HausdorffExact, FarAwayMeshGetsTheExactDistance) {
  // One tet ~300 voxels from a small ball: far beyond any fixed ring cap.
  const LabeledImage3D img = phantom::ball(16, 0.5);
  TetMesh m;
  m.points = {{200, 190, 180}, {201, 190, 180}, {200, 191, 180},
              {200, 190, 181}};
  m.point_kinds.assign(4, VertexKind::Isosurface);
  m.tets = {{0, 1, 2, 3}};
  m.tet_labels = {1};
  m.boundary_tris = {{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}};
  const HausdorffResult want =
      brute_force_hausdorff(m, IsosurfaceOracle(img, 1), 2);
  ASSERT_TRUE(std::isfinite(want.surface_to_mesh));
  ASSERT_GT(want.surface_to_mesh, 250.0);
  for (const int threads : {1, 2, 3, 4}) {
    const HausdorffResult h =
        hausdorff_distance(m, IsosurfaceOracle(img, threads), 2);
    EXPECT_EQ(h.surface_to_mesh, want.surface_to_mesh) << threads;
    EXPECT_EQ(h.mesh_to_surface, want.mesh_to_surface) << threads;
  }
}

TEST(HausdorffExact, TriangleTestsRepeatAtAFixedThreadCount) {
  const LabeledImage3D img = phantom::ball(24, 0.6);
  const MeshingResult res = mesh_of(img, InteriorFill::Delaunay);
  ASSERT_TRUE(res.ok());
  for (const int threads : {1, 3}) {
    const IsosurfaceOracle oracle(img, threads);
    const HausdorffResult a = hausdorff_distance(res.mesh, oracle, 2);
    const HausdorffResult b = hausdorff_distance(res.mesh, oracle, 2);
    EXPECT_EQ(a.triangle_tests, b.triangle_tests) << threads;
  }
}

}  // namespace
}  // namespace pi2m
