#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "core/refiner.hpp"
#include "imaging/phantom.hpp"
#include "io/mesh_serialize.hpp"
#include "io/tables.hpp"
#include "io/writers.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"

namespace pi2m {
namespace {

TetMesh single_tet_mesh() {
  TetMesh m;
  m.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  m.point_kinds.assign(4, VertexKind::Isosurface);
  m.tets = {{0, 1, 2, 3}};
  m.tet_labels = {1};
  m.boundary_tris = {{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}};
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Quality, SingleTetReport) {
  const QualityReport r = evaluate_quality(single_tet_mesh());
  EXPECT_EQ(r.num_tets, 1u);
  EXPECT_EQ(r.num_boundary_tris, 4u);
  EXPECT_NEAR(r.total_volume, 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(r.min_dihedral_deg, 54.7356, 1e-3);  // arctan(sqrt(2)) corner
  EXPECT_NEAR(r.max_dihedral_deg, 90.0, 1e-9);
  EXPECT_NEAR(r.min_boundary_planar_deg, 45.0, 1e-9);
  // radius-edge of the unit corner tet: R = sqrt(3)/2, shortest edge 1.
  EXPECT_NEAR(r.max_radius_edge, std::sqrt(3.0) / 2.0, 1e-12);
  std::size_t dihedral_total = 0;
  for (auto c : r.dihedral_histogram) dihedral_total += c;
  EXPECT_EQ(dihedral_total, 6u);
}

TEST(Quality, EmptyMesh) {
  const QualityReport r = evaluate_quality(TetMesh{});
  EXPECT_EQ(r.num_tets, 0u);
  EXPECT_EQ(r.max_radius_edge, 0.0);
}

TEST(PointTriangle, Distances) {
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0};
  EXPECT_NEAR(point_triangle_distance({0.2, 0.2, 1.0}, a, b, c), 1.0, 1e-12);
  EXPECT_NEAR(point_triangle_distance({0.2, 0.2, 0}, a, b, c), 0.0, 1e-12);
  EXPECT_NEAR(point_triangle_distance({-1, 0, 0}, a, b, c), 1.0, 1e-12);  // vertex
  EXPECT_NEAR(point_triangle_distance({0.5, -2, 0}, a, b, c), 2.0, 1e-12);  // edge
  EXPECT_NEAR(point_triangle_distance({1, 1, 0}, a, b, c),
              std::sqrt(2.0) / 2.0, 1e-12);  // hypotenuse
}

TEST(Hausdorff, RefinedBallIsFaithful) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  RefinerOptions opt;
  opt.threads = 1;
  opt.rules.delta = 2.5;
  Refiner refiner(img, opt);
  ASSERT_TRUE(refiner.refine().completed);
  const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
  const HausdorffResult h = hausdorff_distance(tm, refiner.oracle(), 2);
  // With delta=2.5 voxels the sample theorem bounds the two-sided distance
  // by O(delta^2 / lfs); empirically a few voxels at this coarseness.
  EXPECT_GT(h.symmetric(), 0.0);
  EXPECT_LT(h.symmetric(), 2.5 * 2.5);
  EXPECT_LT(h.mesh_to_surface, 2.5 * 2.5);
  EXPECT_LT(h.surface_to_mesh, 2.5 * 2.5);
}

TEST(Hausdorff, ShrinksWithDelta) {
  const LabeledImage3D img = phantom::ball(32, 0.7);
  auto run = [&](double delta) {
    RefinerOptions opt;
    opt.threads = 1;
    opt.rules.delta = delta;
    Refiner refiner(img, opt);
    EXPECT_TRUE(refiner.refine().completed);
    const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
    // Compare the surface->mesh direction: it scales with the sample
    // spacing delta (Theorem 1), while mesh->surface is dominated by the
    // voxel-quantized oracle's measurement floor at fine deltas.
    return hausdorff_distance(tm, refiner.oracle(), 2).surface_to_mesh;
  };
  const double coarse = run(6.0);
  const double fine = run(1.5);
  EXPECT_LT(fine, coarse);
}

TEST(Writers, VtkOffMedit) {
  const TetMesh m = single_tet_mesh();
  const std::string base = ::testing::TempDir() + "/pi2m_io_test";
  ASSERT_TRUE(io::write_vtk(m, base + ".vtk"));
  ASSERT_TRUE(io::write_off_surface(m, base + ".off"));
  ASSERT_TRUE(io::write_medit(m, base + ".mesh"));

  const std::string vtk = slurp(base + ".vtk");
  EXPECT_NE(vtk.find("POINTS 4 double"), std::string::npos);
  EXPECT_NE(vtk.find("CELLS 1 5"), std::string::npos);
  EXPECT_NE(vtk.find("SCALARS label int 1"), std::string::npos);

  const std::string off = slurp(base + ".off");
  EXPECT_EQ(off.rfind("OFF", 0), 0u);
  EXPECT_NE(off.find("4 4 0"), std::string::npos);

  const std::string medit = slurp(base + ".mesh");
  EXPECT_NE(medit.find("Tetrahedra"), std::string::npos);
  EXPECT_NE(medit.find("End"), std::string::npos);

  std::remove((base + ".vtk").c_str());
  std::remove((base + ".off").c_str());
  std::remove((base + ".mesh").c_str());
}

TEST(Writers, FailureOnBadPath) {
  EXPECT_FALSE(io::write_vtk(TetMesh{}, "/nonexistent_dir_xyz/file.vtk"));
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---- the fprintf writers the to_chars ones replaced, kept verbatim as the
// byte-parity oracle ----

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open(const std::string& path) { return File(std::fopen(path.c_str(), "w")); }

bool oracle_write_vtk(const TetMesh& mesh, const std::string& path) {
  File f = open(path);
  if (!f) return false;
  std::fprintf(f.get(), "# vtk DataFile Version 3.0\npi2m mesh\nASCII\n");
  std::fprintf(f.get(), "DATASET UNSTRUCTURED_GRID\nPOINTS %zu double\n",
               mesh.points.size());
  for (const Vec3& p : mesh.points) {
    std::fprintf(f.get(), "%.9g %.9g %.9g\n", p.x, p.y, p.z);
  }
  std::fprintf(f.get(), "CELLS %zu %zu\n", mesh.tets.size(),
               mesh.tets.size() * 5);
  for (const auto& t : mesh.tets) {
    std::fprintf(f.get(), "4 %u %u %u %u\n", t[0], t[1], t[2], t[3]);
  }
  std::fprintf(f.get(), "CELL_TYPES %zu\n", mesh.tets.size());
  for (std::size_t i = 0; i < mesh.tets.size(); ++i) {
    std::fprintf(f.get(), "10\n");  // VTK_TETRA
  }
  std::fprintf(f.get(), "CELL_DATA %zu\nSCALARS label int 1\nLOOKUP_TABLE default\n",
               mesh.tets.size());
  for (const Label l : mesh.tet_labels) {
    std::fprintf(f.get(), "%d\n", static_cast<int>(l));
  }
  return std::ferror(f.get()) == 0;
}

bool oracle_write_off_surface(const TetMesh& mesh, const std::string& path) {
  File f = open(path);
  if (!f) return false;
  std::fprintf(f.get(), "OFF\n%zu %zu 0\n", mesh.points.size(),
               mesh.boundary_tris.size());
  for (const Vec3& p : mesh.points) {
    std::fprintf(f.get(), "%.9g %.9g %.9g\n", p.x, p.y, p.z);
  }
  for (const auto& t : mesh.boundary_tris) {
    std::fprintf(f.get(), "3 %u %u %u\n", t[0], t[1], t[2]);
  }
  return std::ferror(f.get()) == 0;
}

bool oracle_write_medit(const TetMesh& mesh, const std::string& path) {
  File f = open(path);
  if (!f) return false;
  std::fprintf(f.get(), "MeshVersionFormatted 2\nDimension 3\n");
  std::fprintf(f.get(), "Vertices\n%zu\n", mesh.points.size());
  for (const Vec3& p : mesh.points) {
    std::fprintf(f.get(), "%.9g %.9g %.9g 0\n", p.x, p.y, p.z);
  }
  std::fprintf(f.get(), "Tetrahedra\n%zu\n", mesh.tets.size());
  for (std::size_t i = 0; i < mesh.tets.size(); ++i) {
    const auto& t = mesh.tets[i];
    std::fprintf(f.get(), "%u %u %u %u %d\n", t[0] + 1, t[1] + 1, t[2] + 1,
                 t[3] + 1, static_cast<int>(mesh.tet_labels[i]));
  }
  std::fprintf(f.get(), "Triangles\n%zu\n", mesh.boundary_tris.size());
  for (const auto& t : mesh.boundary_tris) {
    std::fprintf(f.get(), "%u %u %u 0\n", t[0] + 1, t[1] + 1, t[2] + 1);
  }
  std::fprintf(f.get(), "End\n");
  return std::ferror(f.get()) == 0;
}

using Writer = bool (*)(const TetMesh&, const std::string&);

/// Writes `mesh` with the writer under test and with its oracle; the two
/// files must hold the same bytes.
void expect_same_bytes(const TetMesh& mesh, Writer writer, Writer oracle,
                       const std::string& ext) {
  const std::string base = ::testing::TempDir() + "/pi2m_parity";
  ASSERT_TRUE(writer(mesh, base + ext));
  ASSERT_TRUE(oracle(mesh, base + ".oracle" + ext));
  const std::string got = slurp(base + ext);
  const std::string want = slurp(base + ".oracle" + ext);
  EXPECT_GT(want.size(), 0u);
  EXPECT_TRUE(got == want) << ext << ": " << got.size() << " vs "
                           << want.size() << " bytes";
  std::remove((base + ext).c_str());
  std::remove((base + ".oracle" + ext).c_str());
}

void expect_all_writers_match(const TetMesh& mesh) {
  expect_same_bytes(mesh, io::write_vtk, oracle_write_vtk, ".vtk");
  expect_same_bytes(mesh, io::write_off_surface, oracle_write_off_surface,
                    ".off");
  expect_same_bytes(mesh, io::write_medit, oracle_write_medit, ".mesh");
}

TEST(WriterParity, LatticeModeMesh) {
  MeshingOptions opt;
  opt.delta = 1.0;
  opt.threads = 1;
  opt.interior = InteriorFill::Lattice;
  const MeshingResult res = mesh_image(phantom::ellipsoid(64), opt);
  ASSERT_TRUE(res.ok());
  ASSERT_GT(res.outcome.lattice_tets, 0u);
  // Large enough that the files span more than one 1 MB sink buffer.
  ASSERT_GT(res.mesh.num_tets(), 40000u);
  expect_all_writers_match(res.mesh);
}

TEST(WriterParity, AdversarialNumbers) {
  TetMesh m;
  const double values[] = {-0.0,   1e-310,          1e300, -123.456789012,
                           2.0,    0.1,             -1e-5, 123456789.0,
                           1234567890123.0,  5e-324, -1.7976931348623157e308,
                           0.5,    1.0 / 3.0,       7e22,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double a : values) {
    for (const double b : values) {
      m.points.push_back({a, b, -a});
    }
  }
  m.point_kinds.assign(m.points.size(), VertexKind::Isosurface);
  constexpr std::uint32_t kMax = 0xFFFFFFFEu;  // 2^32 - 2
  m.tets = {{0, 1, 2, 3},
            {kMax, kMax - 1, 4294967, 10},
            {99999, 100000, 999999, 1000000},
            {kMax, 0, kMax, 0}};
  m.tet_labels = {1, 255, 7, 0};
  m.boundary_tris = {{kMax, 9, 10}, {0, 1, 2}, {65535, 65536, 16777216}};
  expect_all_writers_match(m);

  // Sections larger than the sink buffer, of the widest numbers.
  TetMesh big = m;
  for (int i = 0; i < 30000; ++i) {
    big.points.push_back({-1.23456789e-300, -2.2250738585072014e-308,
                          -9.87654321e+299});
    big.point_kinds.push_back(VertexKind::Lattice);
    big.tets.push_back({kMax, kMax - 2, kMax - 3, kMax - 4});
    big.tet_labels.push_back(200);
    big.boundary_tris.push_back({kMax, kMax - 5, kMax - 6});
  }
  expect_all_writers_match(big);
}

// ---- writers refuse meshes whose parallel arrays disagree ----

/// Both kinds of mismatch: a label short and a point kind short.
void expect_refuses_inconsistent(Writer writer, const std::string& ext) {
  const std::string path = ::testing::TempDir() + "/pi2m_inconsistent" + ext;
  TetMesh labels_short = single_tet_mesh();
  labels_short.tet_labels.clear();
  TetMesh kinds_short = single_tet_mesh();
  kinds_short.point_kinds.pop_back();
  for (const TetMesh* m : {&labels_short, &kinds_short}) {
    std::remove(path.c_str());
    EXPECT_FALSE(writer(*m, path)) << ext;
    EXPECT_FALSE(file_exists(path)) << ext;
  }
  ASSERT_TRUE(writer(single_tet_mesh(), path)) << ext;
  std::remove(path.c_str());
}

TEST(Writers, VtkRefusesInconsistentArrays) {
  expect_refuses_inconsistent(io::write_vtk, ".vtk");
}

TEST(Writers, OffRefusesInconsistentArrays) {
  expect_refuses_inconsistent(io::write_off_surface, ".off");
}

TEST(Writers, MeditRefusesInconsistentArrays) {
  expect_refuses_inconsistent(io::write_medit, ".mesh");
}

TEST(Writers, StlRefusesInconsistentArrays) {
  expect_refuses_inconsistent(io::write_stl_surface, ".stl");
}

TEST(Writers, P2mRefusesInconsistentArrays) {
  expect_refuses_inconsistent(io::save_mesh, ".p2m");
}

TEST(Tables, AlignmentAndFormat) {
  io::TextTable t;
  t.add_row({"metric", "a", "b"});
  t.add_row({"time", "1.5", "20.25"});
  t.add_row({"rollbacks", "7", "1234"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Data cells right-aligned under their headers: "b" column width 5.
  EXPECT_NE(s.find(" 1234"), std::string::npos);

  EXPECT_EQ(io::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(io::fmt_int(1234567), "1,234,567");
  EXPECT_EQ(io::fmt_int(12), "12");
  EXPECT_EQ(io::fmt_pct(0.825, 1), "82.5%");
  EXPECT_EQ(io::fmt_sci(14300000.0, 2), "1.43E+07");
}

}  // namespace
}  // namespace pi2m
