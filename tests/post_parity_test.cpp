// Thread parity of the post-mesh scans: evaluate_quality and validate_mesh
// split their loops over tet blocks, and must give the serial result at any
// thread count — the report bit for bit, the validation with its errors in
// the same order. Checked on a W1-scale mesh (~384k tets) and on a refined
// mesh, and for validation on corrupted copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/validate.hpp"
#include "geometry/tetra.hpp"
#include "imaging/phantom.hpp"
#include "metrics/quality.hpp"
#include "predicates/predicates.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {
namespace {

/// A jittered n^3-cube grid, each cube split into the 6 Kuhn tets around
/// its main diagonal (a conforming triangulation), positively oriented. Two
/// materials (x below / above the middle); boundary_tris holds the faces on
/// the outer box, the only exposed ones.
TetMesh grid_mesh(int n) {
  TetMesh m;
  const auto id = [n](int i, int j, int k) {
    return static_cast<std::uint32_t>((k * (n + 1) + j) * (n + 1) + i);
  };
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto jitter = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return 0.1 * (static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5);
  };
  for (int k = 0; k <= n; ++k) {
    for (int j = 0; j <= n; ++j) {
      for (int i = 0; i <= n; ++i) {
        m.points.push_back({i + jitter(), j + jitter(), k + jitter()});
      }
    }
  }
  m.point_kinds.assign(m.points.size(), VertexKind::Isosurface);

  // The 6 monotone paths from corner (0,0,0) to (1,1,1), one axis a step.
  const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        for (const auto& p : perms) {
          int c[3] = {i, j, k};
          std::array<std::uint32_t, 4> t{};
          std::array<std::array<int, 3>, 4> g{};
          for (int s = 0; s < 4; ++s) {
            if (s > 0) ++c[p[s - 1]];
            t[s] = id(c[0], c[1], c[2]);
            g[s] = {c[0], c[1], c[2]};
          }
          if (orient3d(m.points[t[0]], m.points[t[1]], m.points[t[2]],
                       m.points[t[3]]) < 0) {
            std::swap(t[0], t[1]);
            std::swap(g[0], g[1]);
          }
          m.tets.push_back(t);
          m.tet_labels.push_back(i < n / 2 ? 1 : 2);
          // A face is exposed iff its three corners share a box plane.
          for (int skip = 0; skip < 4; ++skip) {
            std::array<std::uint32_t, 3> f{};
            std::array<std::array<int, 3>, 3> fg{};
            for (int s = 0, o = 0; s < 4; ++s) {
              if (s == skip) continue;
              f[o] = t[s];
              fg[o++] = g[s];
            }
            for (int axis = 0; axis < 3; ++axis) {
              const int v = fg[0][axis];
              if ((v == 0 || v == n) && fg[1][axis] == v && fg[2][axis] == v) {
                m.boundary_tris.push_back(f);
              }
            }
          }
        }
      }
    }
  }
  return m;
}

constexpr int kGrid = 40;

const TetMesh& big_grid() {
  static const TetMesh m = grid_mesh(kGrid);
  return m;
}

const TetMesh& refined_mesh() {
  static const TetMesh m = [] {
    MeshingOptions opt;
    opt.delta = 1.5;
    opt.threads = 1;
    return mesh_image(phantom::concentric_shells(32), opt).mesh;
  }();
  return m;
}

/// The serial loop evaluate_quality ran before it was split into blocks,
/// kept verbatim as the parity oracle.
QualityReport serial_quality(const TetMesh& mesh) {
  QualityReport r;
  r.num_tets = mesh.tets.size();
  r.num_boundary_tris = mesh.boundary_tris.size();

  double rho_sum = 0.0;
  for (const auto& t : mesh.tets) {
    const Vec3& a = mesh.points[t[0]];
    const Vec3& b = mesh.points[t[1]];
    const Vec3& c = mesh.points[t[2]];
    const Vec3& d = mesh.points[t[3]];

    const double rho = radius_edge_ratio(a, b, c, d);
    if (rho < 1e299) {
      r.max_radius_edge = std::max(r.max_radius_edge, rho);
      rho_sum += rho;
      const auto bin = static_cast<std::size_t>(
          std::min(16.0, std::floor(rho / 0.25)));
      ++r.radius_edge_histogram[bin];
    }

    for (const double ang : dihedral_angles(a, b, c, d)) {
      r.min_dihedral_deg = std::min(r.min_dihedral_deg, ang);
      r.max_dihedral_deg = std::max(r.max_dihedral_deg, ang);
      const auto bin = static_cast<std::size_t>(
          std::clamp(std::floor(ang / 10.0), 0.0, 17.0));
      ++r.dihedral_histogram[bin];
    }

    const double vol = std::fabs(signed_volume(a, b, c, d));
    r.min_volume = std::min(r.min_volume, vol);
    r.total_volume += vol;
  }
  if (r.num_tets > 0) rho_sum /= static_cast<double>(r.num_tets);
  r.mean_radius_edge = rho_sum;

  for (const auto& f : mesh.boundary_tris) {
    r.min_boundary_planar_deg = std::min(
        r.min_boundary_planar_deg,
        min_triangle_angle(mesh.points[f[0]], mesh.points[f[1]],
                           mesh.points[f[2]]));
  }
  if (mesh.tets.empty()) r.min_volume = 0.0;
  return r;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_report(const QualityReport& got, const QualityReport& want,
                        int threads) {
  SCOPED_TRACE(::testing::Message() << threads << " threads");
  EXPECT_EQ(got.num_tets, want.num_tets);
  EXPECT_EQ(got.num_boundary_tris, want.num_boundary_tris);
  EXPECT_EQ(bits(got.max_radius_edge), bits(want.max_radius_edge));
  EXPECT_EQ(bits(got.mean_radius_edge), bits(want.mean_radius_edge));
  EXPECT_EQ(bits(got.min_dihedral_deg), bits(want.min_dihedral_deg));
  EXPECT_EQ(bits(got.max_dihedral_deg), bits(want.max_dihedral_deg));
  EXPECT_EQ(bits(got.min_boundary_planar_deg),
            bits(want.min_boundary_planar_deg));
  EXPECT_EQ(bits(got.min_volume), bits(want.min_volume));
  EXPECT_EQ(bits(got.total_volume), bits(want.total_volume));
  EXPECT_EQ(got.dihedral_histogram, want.dihedral_histogram);
  EXPECT_EQ(got.radius_edge_histogram, want.radius_edge_histogram);
}

void expect_quality_parity(const TetMesh& mesh) {
  const QualityReport want = serial_quality(mesh);
  for (const int t : {1, 2, 4, 7}) {
    expect_same_report(evaluate_quality(mesh, t), want, t);
  }
  expect_same_report(evaluate_quality(mesh), want, 0);
}

TEST(PostThreads, OneThreadPer32kItemsUpToTheCores) {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(post_threads(0), 1);
  EXPECT_EQ(post_threads(1), 1);
  EXPECT_EQ(post_threads(32767), 1);
  EXPECT_EQ(post_threads(23000), 1);  // a small serving job
  EXPECT_EQ(post_threads(2 * 32768), std::min(2, hw));
  EXPECT_EQ(post_threads(400000), std::min(12, hw));
  EXPECT_EQ(post_threads(std::numeric_limits<std::size_t>::max()), hw);
}

TEST(PostThreads, ParallelBlocksJoinsThenRethrows) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_blocks(8, 4,
                               [&](std::size_t b, std::size_t) {
                                 ++ran;
                                 if (b == 4) throw std::runtime_error("block");
                               }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
}

TEST(QualityParity, W1ScaleGrid) {
  ASSERT_GT(big_grid().num_tets(), 380000u);
  expect_quality_parity(big_grid());
}

TEST(QualityParity, RefinedMesh) {
  ASSERT_GT(refined_mesh().num_tets(), 1000u);
  expect_quality_parity(refined_mesh());
}

TEST(QualityParity, TinyAndEmptyMeshes) {
  expect_quality_parity(TetMesh{});
  TetMesh one;
  one.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  one.point_kinds.assign(4, VertexKind::Isosurface);
  one.tets = {{0, 1, 2, 3}};
  one.tet_labels = {1};
  expect_quality_parity(one);
}

void expect_same_validation(const TetMesh& mesh) {
  const MeshValidation a = validate_mesh(mesh, 1);
  const MeshValidation b = validate_mesh(mesh, 4);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.connected_components, b.connected_components);
  EXPECT_EQ(a.boundary_edges_nonmanifold, b.boundary_edges_nonmanifold);
  EXPECT_EQ(a.sliver_elements, b.sliver_elements);
}

bool has_error(const MeshValidation& v, const std::string& msg) {
  return std::find(v.errors.begin(), v.errors.end(), msg) != v.errors.end();
}

TEST(ValidationParity, ValidW1ScaleGrid) {
  const MeshValidation v = validate_mesh(big_grid(), 4);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.connected_components, 1u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
  expect_same_validation(big_grid());
}

TEST(ValidationParity, ValidRefinedMesh) {
  EXPECT_TRUE(validate_mesh(refined_mesh(), 4).ok);
  expect_same_validation(refined_mesh());
}

TEST(ValidationParity, FlippedTetAndBackgroundLabels) {
  // One defect in each of blocks 1..3 of a 4-block split: the errors must
  // come out in element order at any thread count.
  TetMesh m = big_grid();
  const std::size_t n = m.tets.size();
  std::swap(m.tets[n / 3][0], m.tets[n / 3][1]);
  m.tet_labels[n / 2] = 0;
  m.tet_labels[3 * n / 4] = 0;
  const MeshValidation v = validate_mesh(m, 4);
  EXPECT_EQ(v.errors, (std::vector<std::string>{
                          "inverted (negatively oriented) tetrahedron",
                          "element with background label",
                          "element with background label"}));
  expect_same_validation(m);
}

TEST(ValidationParity, DuplicatedBoundaryTriangle) {
  TetMesh m = big_grid();
  m.boundary_tris.push_back(m.boundary_tris[m.boundary_tris.size() / 2]);
  EXPECT_TRUE(has_error(validate_mesh(m, 4), "duplicate boundary triangle"));
  expect_same_validation(m);
}

TEST(ValidationParity, DroppedBoundaryTriangle) {
  TetMesh m = big_grid();
  m.boundary_tris.erase(m.boundary_tris.begin() +
                        static_cast<std::ptrdiff_t>(m.boundary_tris.size() / 3));
  EXPECT_TRUE(has_error(validate_mesh(m, 4),
                        "exposed face missing from boundary_tris"));
  expect_same_validation(m);
}

TEST(ValidationParity, FaceSharedByThreeTets) {
  // A new tet glued onto an interior face of a tet in the middle cube, its
  // apex a fresh point on the far side of that face.
  TetMesh m = big_grid();
  constexpr int c = kGrid / 2;
  const auto t = m.tets[((c * kGrid + c) * kGrid + c) * 6];
  const Vec3 apex = m.points[t[0]] + 0.5 * (m.points[t[0]] - m.points[t[1]]);
  const auto a = static_cast<std::uint32_t>(m.points.size());
  m.points.push_back(apex);
  m.point_kinds.push_back(VertexKind::Isosurface);
  std::array<std::uint32_t, 4> glued{t[0], t[2], t[3], a};
  if (orient3d(m.points[glued[0]], m.points[glued[1]], m.points[glued[2]],
               m.points[glued[3]]) < 0) {
    std::swap(glued[0], glued[1]);
  }
  m.tets.push_back(glued);
  m.tet_labels.push_back(1);
  EXPECT_TRUE(has_error(validate_mesh(m, 4),
                        "face shared by more than two elements"));
  expect_same_validation(m);
}

}  // namespace
}  // namespace pi2m
