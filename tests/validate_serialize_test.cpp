// Tests for mesh validation, binary serialization, the vascular phantom,
// and a configuration sweep of full refinements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/pi2m.hpp"
#include "core/validate.hpp"
#include "imaging/phantom.hpp"
#include "io/mesh_serialize.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

MeshingResult quick_mesh(const LabeledImage3D& img, double delta,
                         int threads = 1) {
  MeshingOptions opt;
  opt.delta = delta;
  opt.threads = threads;
  return mesh_image(img, opt);
}

using Errors = std::vector<std::string>;

const std::string kTetOob = "tet vertex index out of range";
const std::string kTriOob = "boundary vertex index out of range";
const std::string kDegenerate = "degenerate (coplanar) tetrahedron";
const std::string kInverted = "inverted (negatively oriented) tetrahedron";
const std::string kBackground = "element with background label";
const std::string kDuplicate = "duplicate boundary triangle";
const std::string kNotAFace = "boundary triangle is not a face of any element";
const std::string kOverShared = "face shared by more than two elements";
const std::string kExposed = "exposed face missing from boundary_tris";

using Tet = std::array<std::uint32_t, 4>;
using Tri = std::array<std::uint32_t, 3>;

std::vector<Tri> faces_of(const Tet& t) {
  return {{t[1], t[3], t[2]}, {t[0], t[2], t[3]}, {t[0], t[3], t[1]},
          {t[0], t[1], t[2]}};
}

Tri sorted_tri(Tri t) {
  std::sort(t.begin(), t.end());
  return t;
}

/// A hand-built mesh: each tet is made positively oriented (coplanar ones
/// are kept as given), every element has label 1, and `boundary` is listed
/// verbatim.
TetMesh hand_mesh(std::vector<Vec3> points, const std::vector<Tet>& tets,
                  std::vector<Tri> boundary) {
  TetMesh m;
  m.points = std::move(points);
  m.point_kinds.assign(m.points.size(), VertexKind::Isosurface);
  for (Tet t : tets) {
    if (orient3d(m.points[t[0]], m.points[t[1]], m.points[t[2]],
                 m.points[t[3]]) < 0) {
      std::swap(t[0], t[1]);
    }
    m.tets.push_back(t);
  }
  m.tet_labels.assign(m.tets.size(), 1);
  m.boundary_tris = std::move(boundary);
  return m;
}

/// Faces of `tets` other than `except`, as boundary triangles.
std::vector<Tri> faces_except(const std::vector<Tet>& tets, const Tri& except) {
  std::vector<Tri> out;
  for (const Tet& t : tets) {
    for (const Tri& f : faces_of(t)) {
      if (sorted_tri(f) != sorted_tri(except)) out.push_back(f);
    }
  }
  return out;
}

/// Validates `m` and checks the verdict and the exact error list, in order.
MeshValidation expect_errors(const TetMesh& m, const Errors& want) {
  const MeshValidation v = validate_mesh(m);
  EXPECT_EQ(v.ok, want.empty());
  EXPECT_EQ(v.errors, want);
  return v;
}

// Two tets glued on triangle {2,3,4}, apices 1 (above) and 5 (below).
// Point 0 is a spare apex above the glued triangle, unused by the base mesh.
const std::vector<Vec3> kBipyramidPoints = {
    {0.3, 0.3, 2}, {0.2, 0.2, 1}, {0, 0, 0},
    {1, 0, 0},     {0, 1, 0},     {0.2, 0.2, -1}};
const Tri kGlued = {2, 3, 4};
const std::vector<Tet> kBipyramid = {{1, 2, 3, 4}, {5, 2, 3, 4}};

TEST(Validate, CleanMeshPasses) {
  const MeshingResult res = quick_mesh(phantom::ball(24, 0.7), 2.2, 2);
  ASSERT_TRUE(res.ok());
  const MeshValidation v = validate_mesh(res.mesh);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.connected_components, 1u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
}

TEST(Validate, MultiComponentCounted) {
  LabeledImage3D img(36, 16, 16);
  const Vec3 c1{7, 7.5, 7.5}, c2{28, 7.5, 7.5};
  for (int z = 0; z < 16; ++z)
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 36; ++x) {
        const Vec3 p{double(x), double(y), double(z)};
        if (distance2(p, c1) < 20 || distance2(p, c2) < 20)
          img.at({x, y, z}) = 1;
      }
  const MeshingResult res = quick_mesh(img, 1.6);
  ASSERT_TRUE(res.ok());
  const MeshValidation v = validate_mesh(res.mesh);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.connected_components, 2u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
}

TEST(Validate, DetectsCorruption) {
  MeshingResult res = quick_mesh(phantom::ball(20, 0.7), 2.5);
  ASSERT_TRUE(res.ok());
  {
    TetMesh bad = res.mesh;
    bad.tets[0][1] = static_cast<std::uint32_t>(bad.points.size());  // OOB
    expect_errors(bad, Errors{kTetOob});
  }
  {
    TetMesh bad = res.mesh;
    bad.boundary_tris[0][2] = static_cast<std::uint32_t>(bad.points.size());
    expect_errors(bad, Errors{kTriOob});
  }
  {
    TetMesh bad = res.mesh;
    bad.tet_labels[0] = 0;  // background element
    expect_errors(bad, Errors{kBackground});
  }
  {
    TetMesh bad = res.mesh;
    bad.boundary_tris.push_back(bad.boundary_tris.front());  // duplicate
    expect_errors(bad, Errors{kDuplicate});
  }
  {
    // Drop a tet with both boundary and interior faces: its boundary faces
    // lose their element and its interior faces become exposed. All
    // boundary-triangle errors come before all element-face errors.
    TetMesh bad = res.mesh;
    std::set<Tri> boundary;
    for (const Tri& f : bad.boundary_tris) boundary.insert(sorted_tri(f));
    std::size_t on_boundary = 0;
    for (std::size_t i = 0; i < bad.tets.size(); ++i) {
      on_boundary = 0;
      for (const Tri& f : faces_of(bad.tets[i])) {
        on_boundary += boundary.count(sorted_tri(f));
      }
      if (on_boundary > 0 && on_boundary < 4) {
        std::swap(bad.tets[i], bad.tets.back());
        std::swap(bad.tet_labels[i], bad.tet_labels.back());
        break;
      }
    }
    ASSERT_GT(on_boundary, 0u);
    ASSERT_LT(on_boundary, 4u);
    bad.tets.pop_back();
    bad.tet_labels.pop_back();
    Errors want(on_boundary, kNotAFace);
    want.insert(want.end(), 4 - on_boundary, kExposed);
    expect_errors(bad, want);
  }
  {
    TetMesh bad = res.mesh;
    std::swap(bad.tets[0][0], bad.tets[0][1]);  // inverted, same faces
    const MeshValidation v = expect_errors(bad, Errors{kInverted});
    EXPECT_EQ(v.connected_components, 1u);
  }
  {
    // Collapsing a vertex onto its neighbour flattens every tet on that
    // edge and may invert others; errors come in element order, and the
    // face structure is untouched.
    TetMesh bad = res.mesh;
    bad.points[bad.tets[0][0]] = bad.points[bad.tets[0][1]];  // degenerate
    Errors want;
    for (const Tet& t : bad.tets) {
      const int s = orient3d(bad.points[t[0]], bad.points[t[1]],
                             bad.points[t[2]], bad.points[t[3]]);
      if (s == 0) want.push_back(kDegenerate);
      if (s < 0) want.push_back(kInverted);
    }
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(want.front(), kDegenerate);
    expect_errors(bad, want);
  }
}

TEST(Validate, HandBuiltBipyramidPasses) {
  const TetMesh m = hand_mesh(kBipyramidPoints, kBipyramid,
                              faces_except(kBipyramid, kGlued));
  const MeshValidation v = expect_errors(m, Errors{});
  EXPECT_EQ(v.connected_components, 1u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
  EXPECT_EQ(v.sliver_elements, 0u);
}

TEST(Validate, FaceSharedByThreeElements) {
  std::vector<Tet> tets = kBipyramid;
  tets.push_back({0, 2, 3, 4});  // a third tet on the glued triangle
  const TetMesh m = hand_mesh(kBipyramidPoints, tets,
                              faces_except(tets, kGlued));
  const MeshValidation v = expect_errors(m, Errors{kOverShared});
  EXPECT_EQ(v.connected_components, 1u);
  // Each edge of the glued triangle lies on three boundary triangles.
  EXPECT_EQ(v.boundary_edges_nonmanifold, 3u);
}

TEST(Validate, FaceErrorsFollowFaceKeyOrder) {
  // The third tet's own faces ({0,2,3}, {0,2,4}, {0,3,4}) are left out of
  // the boundary list; they sort before the over-shared {2,3,4}.
  std::vector<Tet> tets = kBipyramid;
  tets.push_back({0, 2, 3, 4});
  const TetMesh m = hand_mesh(kBipyramidPoints, tets,
                              faces_except(kBipyramid, kGlued));
  const MeshValidation v =
      expect_errors(m, Errors{kExposed, kExposed, kExposed, kOverShared});
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
}

TEST(Validate, BoundaryTriangleThatIsNoFace) {
  std::vector<Tri> boundary = faces_except(kBipyramid, kGlued);
  boundary.push_back({1, 2, 5});  // cuts through both tets
  const TetMesh m = hand_mesh(kBipyramidPoints, kBipyramid, boundary);
  const MeshValidation v = expect_errors(m, Errors{kNotAFace});
  EXPECT_EQ(v.connected_components, 1u);
  // Edges {1,2} and {2,5} now lie on three triangles, {1,5} on one.
  EXPECT_EQ(v.boundary_edges_nonmanifold, 3u);
}

TEST(Validate, DegenerateHandBuiltTet) {
  std::vector<Vec3> points = kBipyramidPoints;
  points[5].z = 0.0;  // lower apex into the glued triangle's plane
  const TetMesh m =
      hand_mesh(points, kBipyramid, faces_except(kBipyramid, kGlued));
  expect_errors(m, Errors{kDegenerate});
}

TEST(Validate, NonManifoldBoundaryEdgeIsNotAnError) {
  // Two tets that share only the edge {0,1}: both meshes' boundaries
  // meet along it, so it lies on four boundary triangles.
  const std::vector<Vec3> points = {{0, 0, 0},  {1, 0, 0},    {0.5, 1, 0.5},
                                    {0.5, 1, -0.5}, {0.5, -1, 0.5},
                                    {0.5, -1, -0.5}};
  const std::vector<Tet> tets = {{0, 1, 2, 3}, {0, 1, 4, 5}};
  const TetMesh m = hand_mesh(points, tets, faces_except(tets, {0, 0, 0}));
  const MeshValidation v = expect_errors(m, Errors{});
  EXPECT_EQ(v.connected_components, 2u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 1u);
}

TEST(Validate, EmptyMeshIsValid) {
  const MeshValidation v = validate_mesh(TetMesh{});
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.connected_components, 0u);
  EXPECT_EQ(v.boundary_edges_nonmanifold, 0u);
}

TEST(Serialize, RoundTrip) {
  const MeshingResult res = quick_mesh(phantom::concentric_shells(22), 2.4, 2);
  ASSERT_TRUE(res.ok());
  const std::string path = ::testing::TempDir() + "/mesh.p2m";
  ASSERT_TRUE(io::save_mesh(res.mesh, path));

  std::string error;
  const auto back = io::load_mesh(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->points.size(), res.mesh.points.size());
  EXPECT_EQ(back->tets, res.mesh.tets);
  EXPECT_EQ(back->tet_labels, res.mesh.tet_labels);
  EXPECT_EQ(back->boundary_tris, res.mesh.boundary_tris);
  for (std::size_t i = 0; i < back->points.size(); ++i) {
    EXPECT_EQ(back->points[i], res.mesh.points[i]);  // bit-exact
    EXPECT_EQ(back->point_kinds[i], res.mesh.point_kinds[i]);
  }
  EXPECT_TRUE(validate_mesh(*back).ok);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.p2m";
  std::string error;
  EXPECT_FALSE(io::load_mesh("/no/such/file.p2m", &error).has_value());
  {
    std::ofstream(path, std::ios::binary) << "not a mesh at all";
    EXPECT_FALSE(io::load_mesh(path, &error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos);
  }
  {
    // Valid magic, truncated body.
    std::ofstream out(path, std::ios::binary);
    out.write("PI2MMSH1", 8);
    const std::uint64_t huge = 1ull << 40;
    out.write(reinterpret_cast<const char*>(&huge), 8);
  }
  EXPECT_FALSE(io::load_mesh(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(Vessels, ThinStructuresRecovered) {
  const LabeledImage3D img = phantom::vessels(48, 2);
  ASSERT_EQ(img.labels_present().size(), 3u);
  const MeshingResult res = quick_mesh(img, 1.2, 2);
  ASSERT_TRUE(res.ok());
  std::size_t lumen = 0, wall = 0, tissue = 0;
  for (const Label l : res.mesh.tet_labels) {
    lumen += l == 1;
    wall += l == 2;
    tissue += l == 3;
  }
  // All three compartments meshed, including the thin vessel wall.
  EXPECT_GT(lumen, 50u);
  EXPECT_GT(wall, 100u);
  EXPECT_GT(tissue, 500u);
  EXPECT_TRUE(validate_mesh(res.mesh).ok);
}

// --- full-pipeline configuration sweep --------------------------------------

struct SweepCase {
  const char* phantom;
  double delta;
  int threads;
};

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, MeshesValidateAcrossConfigs) {
  const SweepCase c = GetParam();
  LabeledImage3D img;
  const std::string name = c.phantom;
  if (name == "ball") img = phantom::ball(26, 0.7);
  if (name == "shells") img = phantom::concentric_shells(26);
  if (name == "abdominal") img = phantom::abdominal(26, 26, 26);
  if (name == "knee") img = phantom::knee(26, 26, 26);
  if (name == "vessels") img = phantom::vessels(30, 1);

  const MeshingResult res = quick_mesh(img, c.delta, c.threads);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.mesh.num_tets(), 0u);
  const MeshValidation v = validate_mesh(res.mesh);
  EXPECT_TRUE(v.ok) << name << ": "
                    << (v.errors.empty() ? "" : v.errors.front());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSweep,
    ::testing::Values(SweepCase{"ball", 3.0, 1}, SweepCase{"ball", 1.6, 4},
                      SweepCase{"shells", 2.4, 1}, SweepCase{"shells", 2.4, 4},
                      SweepCase{"abdominal", 2.0, 2},
                      SweepCase{"abdominal", 1.4, 8},
                      SweepCase{"knee", 2.0, 2}, SweepCase{"knee", 1.4, 4},
                      SweepCase{"vessels", 1.4, 2}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.phantom) + "_d" +
             std::to_string(int(info.param.delta * 10)) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace pi2m
