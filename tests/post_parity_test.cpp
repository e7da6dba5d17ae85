// Thread parity of the post-mesh scans: evaluate_quality splits its loops
// over tet blocks, validate_mesh its element checks over tet blocks and its
// conformity checks over vertex ranges, and both must give the result of
// their earlier code, kept verbatim here as oracles, at any thread count —
// the report bit for bit, the validation field for field with its errors in
// the same order. Checked on a W1-scale mesh (~384k tets) and on a refined
// mesh, and for validation on corrupted copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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
constexpr int kSmallGrid = 16;

const TetMesh& big_grid() {
  static const TetMesh m = grid_mesh(kGrid);
  return m;
}

/// The point index of grid corner (i, j, k) of a grid_mesh(n).
std::uint32_t grid_id(int n, int i, int j, int k) {
  return static_cast<std::uint32_t>((k * (n + 1) + j) * (n + 1) + i);
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

/// validate_mesh as it was before the conformity checks, union-find and
/// boundary-edge pass moved onto vertex-range blocks (its element checks
/// and face sort already ran on tet blocks), kept verbatim as the parity
/// oracle.
using FaceKey = std::array<std::uint32_t, 3>;

FaceKey face_key(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  FaceKey k{a, b, c};
  std::sort(k.begin(), k.end());
  return k;
}

constexpr int kTetFaces[4][3] = {{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}};

struct OwnedFace {
  FaceKey key;
  std::uint32_t owner;  ///< index of the tet the face belongs to
  bool operator<(const OwnedFace& o) const {
    return key != o.key ? key < o.key : owner < o.owner;
  }
};

/// Every tet face, in lexicographic (key, owner) order. A counting sort on
/// the smallest vertex (the key's first entry) does the bulk of the work;
/// each bucket then holds only the few faces around one vertex and is
/// sorted in place. Each tet block counts its faces per vertex; bucket v
/// takes block 0's faces first, then block 1's, ..., so the blocks scatter
/// in parallel and stably (tet order within a bucket, as a serial scatter
/// would). The buckets are then sorted in vertex ranges of about equal face
/// counts. The array is the same at any block count.
std::vector<OwnedFace> sorted_tet_faces(const TetMesh& mesh,
                                        std::size_t blocks) {
  const std::size_t nt = mesh.tets.size();
  const std::size_t nv = mesh.points.size();
  // at[k * nv + v]: block k's face count for vertex v, then its next slot.
  std::vector<std::size_t> at(blocks * nv, 0);
  parallel_indexed_blocks(nt, blocks, [&](std::size_t k, std::size_t b,
                                          std::size_t e) {
    std::size_t* count = at.data() + k * nv;
    for (std::size_t ti = b; ti < e; ++ti) {
      const auto& t = mesh.tets[ti];
      for (const auto& fi : kTetFaces) {
        ++count[std::min({t[fi[0]], t[fi[1]], t[fi[2]]})];
      }
    }
  });
  std::vector<std::size_t> start(nv + 1);
  std::size_t total = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    start[v] = total;
    for (std::size_t k = 0; k < blocks; ++k) {
      const std::size_t c = at[k * nv + v];
      at[k * nv + v] = total;
      total += c;
    }
  }
  start[nv] = total;

  std::vector<OwnedFace> faces(total);
  parallel_indexed_blocks(nt, blocks, [&](std::size_t k, std::size_t b,
                                          std::size_t e) {
    std::size_t* next = at.data() + k * nv;
    for (std::size_t ti = b; ti < e; ++ti) {
      const auto& t = mesh.tets[ti];
      for (const auto& fi : kTetFaces) {
        const FaceKey key = face_key(t[fi[0]], t[fi[1]], t[fi[2]]);
        faces[next[key[0]]++] = {key, static_cast<std::uint32_t>(ti)};
      }
    }
  });
  // Block k sorts the buckets that start in its share [b, e) of the faces.
  parallel_indexed_blocks(total, blocks, [&](std::size_t, std::size_t b,
                                             std::size_t e) {
    auto v = static_cast<std::size_t>(
        std::lower_bound(start.begin(), start.end() - 1, b) - start.begin());
    for (; v < nv && start[v] < e; ++v) {
      std::sort(faces.begin() + static_cast<std::ptrdiff_t>(start[v]),
                faces.begin() + static_cast<std::ptrdiff_t>(start[v + 1]));
    }
  });
  return faces;
}


MeshValidation reference_validate_mesh(const TetMesh& mesh, int threads) {
  MeshValidation v;
  auto fail = [&v](std::string msg) { v.errors.push_back(std::move(msg)); };

  // --- array and index sanity ---
  if (mesh.point_kinds.size() != mesh.points.size()) {
    fail("point_kinds size mismatch");
  }
  if (mesh.tet_labels.size() != mesh.tets.size()) {
    fail("tet_labels size mismatch");
  }
  const auto n = static_cast<std::uint32_t>(mesh.points.size());
  for (const auto& t : mesh.tets) {
    for (const std::uint32_t w : t) {
      if (w >= n) {
        fail("tet vertex index out of range");
        break;
      }
    }
  }
  for (const auto& f : mesh.boundary_tris) {
    for (const std::uint32_t w : f) {
      if (w >= n) {
        fail("boundary vertex index out of range");
        break;
      }
    }
  }
  if (!v.errors.empty()) return v;  // indices unusable below

  // --- element sanity ---
  // Sliver threshold: relative to the mesh's own scale so validation is
  // unit-independent. 1e-12 of diag^3 is far below any element a sizing-
  // driven refinement legitimately produces, but still ~4 orders of
  // magnitude above double rounding noise at the bbox scale.
  Aabb bbox;
  for (const Vec3& p : mesh.points) bbox.expand(p);
  const double diag = mesh.points.empty() ? 0.0 : norm(bbox.extent());
  const double sliver_vol = 1e-12 * diag * diag * diag;
  const auto blocks = static_cast<std::size_t>(
      threads > 0 ? threads : post_threads(mesh.tets.size()));
  // Each block collects its own errors; concatenated in block order they
  // are the serial loop's errors, in its order.
  struct Sanity {
    std::vector<std::string> errors;
    std::size_t slivers = 0;
  };
  std::vector<Sanity> part(blocks);
  parallel_indexed_blocks(mesh.tets.size(), blocks, [&](std::size_t k,
                                                        std::size_t b,
                                                        std::size_t e) {
    Sanity& s = part[k];
    for (std::size_t i = b; i < e; ++i) {
      const auto& t = mesh.tets[i];
      // The exact predicate decides degenerate/inverted: the floating-point
      // volume of a coplanar quadruple can round to a nonzero value (and an
      // inverted sliver's to a positive one), so fabs(vol) <= 0.0 misses
      // both.
      const int sign = orient3d(mesh.points[t[0]], mesh.points[t[1]],
                                mesh.points[t[2]], mesh.points[t[3]]);
      if (sign == 0) {
        s.errors.emplace_back("degenerate (coplanar) tetrahedron");
      } else if (sign < 0) {
        s.errors.emplace_back("inverted (negatively oriented) tetrahedron");
      } else {
        const double vol = signed_volume(mesh.points[t[0]], mesh.points[t[1]],
                                         mesh.points[t[2]], mesh.points[t[3]]);
        if (vol < sliver_vol) ++s.slivers;
      }
      if (i < mesh.tet_labels.size() && mesh.tet_labels[i] == 0) {
        s.errors.emplace_back("element with background label");
      }
    }
  });
  for (Sanity& s : part) {
    for (std::string& msg : s.errors) fail(std::move(msg));
    v.sliver_elements += s.slivers;
  }

  // --- face conformity ---
  // Both lists are in key order, the order the errors are reported in.
  const std::vector<OwnedFace> faces = sorted_tet_faces(mesh, blocks);
  std::vector<FaceKey> boundary;
  boundary.reserve(mesh.boundary_tris.size());
  for (const auto& b : mesh.boundary_tris) {
    boundary.push_back(face_key(b[0], b[1], b[2]));
  }
  std::sort(boundary.begin(), boundary.end());
  std::size_t f = 0;  // first face whose key is not below boundary[i]
  for (std::size_t i = 0; i < boundary.size();) {
    std::size_t j = i + 1;
    while (j < boundary.size() && boundary[j] == boundary[i]) ++j;
    if (j - i > 1) fail("duplicate boundary triangle");
    while (f < faces.size() && faces[f].key < boundary[i]) ++f;
    if (f == faces.size() || faces[f].key != boundary[i]) {
      fail("boundary triangle is not a face of any element");
    }
    i = j;
  }

  // One pass over runs of equal keys: the run length is the number of
  // elements sharing the face, and every run joins its owners' components.
  std::vector<std::uint32_t> parent(mesh.tets.size());
  for (std::uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::size_t b = 0;  // first boundary key not below the face key k
  for (std::size_t i = 0; i < faces.size();) {
    const FaceKey& k = faces[i].key;
    std::size_t j = i + 1;
    for (; j < faces.size() && faces[j].key == k; ++j) {
      parent[find(faces[j].owner)] = find(faces[i].owner);
    }
    if (j - i > 2) {
      fail("face shared by more than two elements");
    } else if (j - i == 1) {
      while (b < boundary.size() && boundary[b] < k) ++b;
      if (b == boundary.size() || boundary[b] != k) {
        fail("exposed face missing from boundary_tris");
      }
    }
    i = j;
  }
  for (std::uint32_t i = 0; i < parent.size(); ++i) {
    if (find(i) == i) ++v.connected_components;
  }

  // --- boundary edge manifoldness (informational) ---
  std::vector<std::uint64_t> edges;
  edges.reserve(3 * mesh.boundary_tris.size());
  for (const auto& t : mesh.boundary_tris) {
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t lo = std::min(t[i], t[(i + 1) % 3]);
      const std::uint64_t hi = std::max(t[i], t[(i + 1) % 3]);
      edges.push_back(lo << 32 | hi);
    }
  }
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i + 1;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    if (j - i != 2) ++v.boundary_edges_nonmanifold;
    i = j;
  }

  v.ok = v.errors.empty();
  return v;
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
  const MeshValidation want = reference_validate_mesh(mesh, 1);
  for (const int t : {1, 2, 4, 7, 0}) {
    SCOPED_TRACE(::testing::Message() << t << " threads");
    const MeshValidation got = validate_mesh(mesh, t);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.errors, want.errors);
    EXPECT_EQ(got.connected_components, want.connected_components);
    EXPECT_EQ(got.boundary_edges_nonmanifold, want.boundary_edges_nonmanifold);
    EXPECT_EQ(got.sliver_elements, want.sliver_elements);
  }
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

TEST(ValidationParity, TwoDisjointComponents) {
  // The grid and a copy of it moved one grid width along x.
  TetMesh m = grid_mesh(kSmallGrid);
  const TetMesh copy = m;
  const auto shift = static_cast<std::uint32_t>(m.points.size());
  for (const Vec3& p : copy.points) {
    m.points.push_back(p + Vec3{kSmallGrid + 2.0, 0.0, 0.0});
  }
  m.point_kinds.insert(m.point_kinds.end(), copy.point_kinds.begin(),
                       copy.point_kinds.end());
  for (auto t : copy.tets) {
    for (auto& w : t) w += shift;
    m.tets.push_back(t);
  }
  m.tet_labels.insert(m.tet_labels.end(), copy.tet_labels.begin(),
                      copy.tet_labels.end());
  for (auto f : copy.boundary_tris) {
    for (auto& w : f) w += shift;
    m.boundary_tris.push_back(f);
  }
  const MeshValidation v = validate_mesh(m, 4);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.connected_components, 2u);
  expect_same_validation(m);
}

TEST(ValidationParity, NonManifoldBoundaryEdge) {
  // A tet hung on the outside of the grid by one edge (a, b) of the x = 0
  // face, its four faces listed as boundary: edge (a, b) then lies on four
  // boundary triangles.
  TetMesh m = grid_mesh(kSmallGrid);
  constexpr int c = kSmallGrid / 2;
  const std::uint32_t a = grid_id(kSmallGrid, 0, c, c);
  const std::uint32_t b = grid_id(kSmallGrid, 0, c + 1, c);
  const Vec3 mid = 0.5 * (m.points[a] + m.points[b]);
  const auto p = static_cast<std::uint32_t>(m.points.size());
  m.points.push_back(mid + Vec3{-1.0, 0.0, 0.6});
  m.points.push_back(mid + Vec3{-1.0, 0.3, -0.6});
  m.point_kinds.resize(m.points.size(), VertexKind::Isosurface);
  std::array<std::uint32_t, 4> t{a, b, p, p + 1};
  const int sign = orient3d(m.points[t[0]], m.points[t[1]], m.points[t[2]],
                            m.points[t[3]]);
  ASSERT_NE(sign, 0);
  if (sign < 0) std::swap(t[0], t[1]);
  m.tets.push_back(t);
  m.tet_labels.push_back(1);
  m.boundary_tris.push_back({t[1], t[3], t[2]});
  m.boundary_tris.push_back({t[0], t[2], t[3]});
  m.boundary_tris.push_back({t[0], t[3], t[1]});
  m.boundary_tris.push_back({t[0], t[1], t[2]});
  const MeshValidation v = validate_mesh(m, 4);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.connected_components, 2u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 1u);
  expect_same_validation(m);
}

TEST(ValidationParity, BoundaryTriangleThatIsNoFace) {
  // Three corners of the box: every vertex exists, the triangle does not.
  // Then a triangle on three new points that no tet uses, past the last
  // vertex that starts any tet face.
  TetMesh m = grid_mesh(kSmallGrid);
  m.boundary_tris.push_back({grid_id(kSmallGrid, 0, 0, 0),
                             grid_id(kSmallGrid, kSmallGrid, 0, 0),
                             grid_id(kSmallGrid, 0, kSmallGrid, 0)});
  const auto p = static_cast<std::uint32_t>(m.points.size());
  m.points.push_back({-5.0, 0.0, 0.0});
  m.points.push_back({-5.0, 1.0, 0.0});
  m.points.push_back({-5.0, 0.0, 1.0});
  m.point_kinds.resize(m.points.size(), VertexKind::Isosurface);
  m.boundary_tris.push_back({p + 2, p, p + 1});
  const MeshValidation v = validate_mesh(m, 4);
  EXPECT_EQ(v.errors, std::vector<std::string>(
                          2, "boundary triangle is not a face of any element"));
  EXPECT_EQ(v.boundary_edges_nonmanifold, 6u);
  expect_same_validation(m);
}

TEST(ValidationParity, ConformityErrorsAcrossVertexRanges) {
  // Boundary-triangle and element-face errors in every part of the vertex
  // range: all boundary-triangle errors must come first, each kind in key
  // order, however the ranges are split.
  TetMesh m = grid_mesh(kSmallGrid);
  const std::size_t nb = m.boundary_tris.size();
  std::vector<std::array<std::uint32_t, 3>> extra;
  for (int i = 1; i < 8; ++i) {
    extra.push_back(m.boundary_tris[i * nb / 8]);  // duplicated
    extra.push_back({grid_id(kSmallGrid, 0, 0, 2 * i),  // no tet's face
                     grid_id(kSmallGrid, kSmallGrid, 0, 2 * i),
                     grid_id(kSmallGrid, 0, kSmallGrid, 2 * i)});
  }
  for (std::size_t i = 7; i >= 1; --i) {  // dropped: exposed, unlisted
    m.boundary_tris.erase(m.boundary_tris.begin() +
                          static_cast<std::ptrdiff_t>(i * nb / 8 + 1));
  }
  m.boundary_tris.insert(m.boundary_tris.end(), extra.begin(), extra.end());
  const MeshValidation v = validate_mesh(m, 7);
  ASSERT_EQ(v.errors.size(), 21u);
  EXPECT_EQ(v.errors.back(), "exposed face missing from boundary_tris");
  expect_same_validation(m);
}

}  // namespace
}  // namespace pi2m
