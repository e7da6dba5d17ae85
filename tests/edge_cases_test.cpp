// Edge cases and failure-mode coverage across modules: degenerate inputs,
// boundary-of-domain behaviour, empty objects, death-checked misuse.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pi2m.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "geometry/tetra.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"
#include "io/writers.hpp"
#include "metrics/hausdorff.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

// --- predicates -----------------------------------------------------------

TEST(PredicateEdge, AllCoincidentPointsAreDegenerate) {
  const Vec3 p{1.5, -2.25, 3.75};
  EXPECT_EQ(orient3d(p, p, p, p), 0);
  EXPECT_EQ(insphere(p, p, p, p, p), 0);
}

TEST(PredicateEdge, LargeAndSmallCoordinatesWithinSupportedRange) {
  // Exactness holds while intermediate products stay inside double range:
  // orient3d evaluates a degree-3 polynomial (|x| ≲ 1e100), insphere a
  // degree-5 one (|x| ≲ 1e60) — same envelope as Shewchuk's predicates.
  const double big = 1e100;
  EXPECT_GT(orient3d({0, 0, 0}, {big, 0, 0}, {0, big, 0}, {0, 0, -big}), 0);
  const double tiny = 1e-100;
  EXPECT_GT(orient3d({0, 0, 0}, {tiny, 0, 0}, {0, tiny, 0}, {0, 0, -tiny}), 0);
  const double ibig = 1e60;
  const Vec3 a{0, 0, 0}, b{ibig, 0, 0}, c{0, 0, ibig}, d{0, ibig, 0};
  ASSERT_GT(orient3d(a, b, c, d), 0);
  EXPECT_GT(insphere(a, b, c, d, {0.2 * ibig, 0.2 * ibig, 0.2 * ibig}), 0);
  EXPECT_LT(insphere(a, b, c, d, {3 * ibig, 3 * ibig, 3 * ibig}), 0);
}

TEST(PredicateEdge, InsphereParity) {
  // Swapping two of the first four arguments must flip the sign.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 0, 1}, d{0, 1, 0};
  const Vec3 e{0.2, 0.2, 0.2};
  ASSERT_GT(orient3d(a, b, c, d), 0);
  const int s = insphere(a, b, c, d, e);
  EXPECT_GT(s, 0);
  EXPECT_EQ(insphere(b, a, c, d, e), -s);
  EXPECT_EQ(insphere(a, c, b, d, e), -s);
  EXPECT_EQ(insphere(a, b, d, c, e), -s);
}

// --- kernel misuse (death) -------------------------------------------------

TEST(KernelDeath, UnlockWithoutOwnershipAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  EXPECT_DEATH(mesh.unlock_vertex(0, /*tid=*/3), "not held");
}

TEST(KernelDeath, ArenaCapacityAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ChunkedStore<int> tiny(2);
        tiny.allocate();
        tiny.allocate();
        tiny.allocate();  // over capacity
      },
      "capacity");
}

TEST(OptionsDeath, MissingDeltaAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const LabeledImage3D img(4, 4, 4);
  MeshingOptions opt;  // delta left at 0
  EXPECT_DEATH({ Refiner refiner(img, opt); }, "delta");
}

// --- insertion on exact degeneracies ----------------------------------------

TEST(InsertEdge, PointOnSharedFaceOrEdge) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  // Interior diagonal of the Kuhn subdivision: points on it lie on shared
  // faces/edges of the initial cells. Insertion must either succeed or fail
  // cleanly — never corrupt the structure.
  for (const double t : {0.25, 0.5, 0.75}) {
    insert_point(mesh, {t, t, t}, VertexKind::Circumcenter, 0, 0, s);
    ASSERT_EQ(mesh.check_integrity(true), "");
    ASSERT_NEAR(mesh.total_volume(), 1.0, 1e-12);
  }
  // A point on an axis-aligned face of the box interior grid.
  insert_point(mesh, {0.5, 0.5, 0.0}, VertexKind::Circumcenter, 0, 0, s);
  EXPECT_EQ(mesh.check_integrity(true), "");
}

TEST(InsertEdge, BoxCornersAreDuplicates) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  OpScratch s;
  const OpResult r =
      insert_point(mesh, {0, 0, 0}, VertexKind::Circumcenter, 0, 0, s);
  EXPECT_EQ(r.status, OpStatus::Failed);
  EXPECT_EQ(mesh.check_integrity(true), "");
}

// --- refiner on pathological images -----------------------------------------

TEST(RefinerEdge, EmptyImageProducesEmptyMesh) {
  LabeledImage3D img(12, 12, 12);  // all background
  MeshingOptions opt;
  opt.delta = 2.0;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.totals.insertions, 0u);
  const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
  EXPECT_EQ(tm.num_tets(), 0u);
}

TEST(RefinerEdge, FullForegroundTouchingImageBorder) {
  // Every voxel is tissue: the isosurface is the image border itself.
  LabeledImage3D img(14, 14, 14);
  for (auto& l : img.raw()) l = 1;
  MeshingOptions opt;
  opt.delta = 2.5;
  opt.threads = 2;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.mesh.num_tets(), 0u);
  // Mesh volume ~ image volume.
  double vol = 0;
  for (const auto& t : res.mesh.tets) {
    vol += std::abs(signed_volume(res.mesh.points[t[0]], res.mesh.points[t[1]],
                                  res.mesh.points[t[2]], res.mesh.points[t[3]]));
  }
  EXPECT_NEAR(vol, 14.0 * 14 * 14, 0.15 * 14 * 14 * 14);
}

TEST(RefinerEdge, SingleVoxelObject) {
  LabeledImage3D img(9, 9, 9);
  img.at({4, 4, 4}) = 1;
  MeshingOptions opt;
  opt.delta = 0.5;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  // A lone voxel still produces a tiny blob of elements around its center.
  EXPECT_GT(res.mesh.num_tets(), 0u);
  EXPECT_LT(res.mesh.num_tets(), 2000u);
}

TEST(RefinerEdge, MoreThreadsThanWork) {
  LabeledImage3D img(10, 10, 10);
  img.at({5, 5, 5}) = 1;
  img.at({5, 5, 6}) = 1;
  MeshingOptions opt;
  opt.threads = 12;  // massively more threads than elements to refine
  opt.delta = 1.0;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  EXPECT_TRUE(out.completed);  // termination protocol must not hang
}

TEST(RefinerEdge, DisjointComponentsBothMeshed) {
  // Two well-separated balls with different labels.
  LabeledImage3D img(40, 20, 20);
  const Vec3 c1{9, 9.5, 9.5}, c2{30, 9.5, 9.5};
  for (int z = 0; z < 20; ++z) {
    for (int y = 0; y < 20; ++y) {
      for (int x = 0; x < 40; ++x) {
        const Vec3 p{double(x), double(y), double(z)};
        if (distance2(p, c1) < 36) img.at({x, y, z}) = 1;
        if (distance2(p, c2) < 36) img.at({x, y, z}) = 2;
      }
    }
  }
  MeshingOptions opt;
  opt.delta = 1.6;
  opt.threads = 2;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  std::size_t n1 = 0, n2 = 0;
  for (const Label l : res.mesh.tet_labels) {
    n1 += l == 1;
    n2 += l == 2;
  }
  EXPECT_GT(n1, 50u);
  EXPECT_GT(n2, 50u);
  // Equal balls: comparable element counts.
  EXPECT_NEAR(double(n1), double(n2), 0.4 * double(n1));
}

TEST(RefinerEdge, AnisotropicSpacingEndToEnd) {
  // The paper's atlases are anisotropic (e.g. 0.96x0.96x2.4 mm). World-space
  // geometry must come out right: the meshed volume of a ball defined in
  // world units must match regardless of the voxel aspect.
  const double R = 9.0;
  auto make = [&](Vec3 sp) {
    const int nx = int(std::ceil(24 / sp.x)), ny = int(std::ceil(24 / sp.y)),
              nz = int(std::ceil(24 / sp.z));
    const Vec3 c{12, 12, 12};
    return phantom::from_function(nx, ny, nz, sp, [&](const Vec3& p) -> Label {
      return distance2(p, c) <= R * R ? 1 : 0;
    });
  };
  MeshingOptions opt;
  opt.delta = 2.0;
  const MeshingResult iso = mesh_image(make({1, 1, 1}), opt);
  const MeshingResult aniso = mesh_image(make({1, 1, 2.4}), opt);
  ASSERT_TRUE(iso.ok());
  ASSERT_TRUE(aniso.ok());
  auto vol = [](const TetMesh& m) {
    double v = 0;
    for (const auto& t : m.tets) {
      v += std::abs(signed_volume(m.points[t[0]], m.points[t[1]],
                                  m.points[t[2]], m.points[t[3]]));
    }
    return v;
  };
  const double exact = 4.0 / 3.0 * 3.14159265358979 * R * R * R;
  EXPECT_NEAR(vol(iso.mesh), exact, 0.12 * exact);
  EXPECT_NEAR(vol(aniso.mesh), exact, 0.20 * exact);  // coarser in z
}

// --- misc ------------------------------------------------------------------

TEST(PhantomEdge, RandomBlobsDeterministicPerSeed) {
  const LabeledImage3D a = phantom::random_blobs(20, 77);
  const LabeledImage3D b = phantom::random_blobs(20, 77);
  const LabeledImage3D c = phantom::random_blobs(20, 78);
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_NE(a.raw(), c.raw());
}

TEST(WritersEdge, EmptyMeshFilesAreValid) {
  const TetMesh empty;
  const std::string base = ::testing::TempDir() + "/empty";
  EXPECT_TRUE(io::write_vtk(empty, base + ".vtk"));
  EXPECT_TRUE(io::write_off_surface(empty, base + ".off"));
  EXPECT_TRUE(io::write_medit(empty, base + ".mesh"));
  EXPECT_TRUE(io::write_stl_surface(empty, base + ".stl"));
  for (const char* ext : {".vtk", ".off", ".mesh", ".stl"}) {
    std::remove((base + ext).c_str());
  }
}

TEST(HausdorffEdge, EmptyBoundaryGivesZero) {
  const LabeledImage3D img = phantom::ball(10, 0.6);
  const IsosurfaceOracle oracle(img, 1);
  const HausdorffResult h = hausdorff_distance(TetMesh{}, oracle);
  EXPECT_EQ(h.symmetric(), 0.0);
}

TEST(TablesEdge, EmptyAndRagged) {
  io::TextTable empty;
  EXPECT_EQ(empty.to_string(), "");
  io::TextTable ragged;
  ragged.add_row({"a", "b", "c"});
  ragged.add_row({"x"});  // short row must not crash
  const std::string s = ragged.to_string();
  EXPECT_NE(s.find('x'), std::string::npos);
}

}  // namespace
}  // namespace pi2m
