// Cross-module integration: the full image -> mesh -> metrics -> export
// pipeline, plus refiner failure modes (op budget) and extraction
// consistency properties.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "baselines/plc_mesher.hpp"
#include "baselines/seq_mesher.hpp"
#include "core/pi2m.hpp"
#include "geometry/tetra.hpp"
#include "imaging/phantom.hpp"
#include "io/writers.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"

namespace pi2m {
namespace {

TEST(Integration, FullPipelineKneePhantom) {
  const LabeledImage3D img = phantom::knee(40, 40, 40);
  MeshingOptions opt;
  opt.delta = 1.6;
  opt.threads = 4;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_GT(res.mesh.num_tets(), 500u);

  // 1. All four knee tissues present.
  std::set<Label> labels(res.mesh.tet_labels.begin(),
                         res.mesh.tet_labels.end());
  EXPECT_GE(labels.size(), 4u);
  EXPECT_EQ(labels.count(0), 0u);

  // 2. Quality report coherent with options.
  const QualityReport q = evaluate_quality(res.mesh);
  EXPECT_EQ(q.num_tets, res.mesh.num_tets());
  EXPECT_LE(q.max_radius_edge, opt.radius_edge_bound * 1.05);
  EXPECT_GT(q.total_volume, 0.0);

  // 3. Fidelity measurable and bounded.
  const IsosurfaceOracle oracle(img, 2);
  const HausdorffResult h = hausdorff_distance(res.mesh, oracle, 2);
  EXPECT_GT(h.symmetric(), 0.0);
  EXPECT_LT(h.symmetric(), 10.0);

  // 4. Export and re-read: counts must round-trip.
  const std::string path = ::testing::TempDir() + "/integration.vtk";
  ASSERT_TRUE(io::write_vtk(res.mesh, path));
  std::ifstream in(path);
  std::string line;
  bool found_points = false, found_cells = false;
  while (std::getline(in, line)) {
    if (line.rfind("POINTS", 0) == 0) {
      found_points = true;
      std::istringstream ss(line);
      std::string kw;
      std::size_t n = 0;
      ss >> kw >> n;
      EXPECT_EQ(n, res.mesh.num_points());
    }
    if (line.rfind("CELLS", 0) == 0) {
      found_cells = true;
      std::istringstream ss(line);
      std::string kw;
      std::size_t n = 0;
      ss >> kw >> n;
      EXPECT_EQ(n, res.mesh.num_tets());
    }
  }
  EXPECT_TRUE(found_points);
  EXPECT_TRUE(found_cells);
  std::remove(path.c_str());
}

TEST(Integration, ExtractionConsistency) {
  const LabeledImage3D img = phantom::concentric_shells(24);
  MeshingOptions opt;
  opt.threads = 2;
  opt.delta = 2.0;
  Refiner refiner(img, opt);
  ASSERT_TRUE(refiner.refine().completed);
  const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(), 2);

  // Every tet positively "oriented" in the |volume| sense and labelled.
  ASSERT_EQ(tm.tets.size(), tm.tet_labels.size());
  for (std::size_t i = 0; i < tm.tets.size(); ++i) {
    const auto& t = tm.tets[i];
    const double vol = signed_volume(tm.points[t[0]], tm.points[t[1]],
                                     tm.points[t[2]], tm.points[t[3]]);
    EXPECT_GT(std::abs(vol), 0.0);
    EXPECT_NE(tm.tet_labels[i], 0);
  }

  // Every boundary triangle is a face of at least one kept tet, and the
  // triangle multiset has no duplicates (each interface emitted once).
  std::set<std::array<std::uint32_t, 3>> tet_faces;
  for (const auto& t : tm.tets) {
    const int f[4][3] = {{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}};
    for (const auto& fi : f) {
      std::array<std::uint32_t, 3> key{t[fi[0]], t[fi[1]], t[fi[2]]};
      std::sort(key.begin(), key.end());
      tet_faces.insert(key);
    }
  }
  std::set<std::array<std::uint32_t, 3>> seen;
  for (const auto& b : tm.boundary_tris) {
    std::array<std::uint32_t, 3> key{b[0], b[1], b[2]};
    std::sort(key.begin(), key.end());
    EXPECT_TRUE(tet_faces.count(key)) << "boundary tri not a tet face";
    EXPECT_TRUE(seen.insert(key).second) << "duplicate boundary tri";
  }

  // point_kinds parallel to points; surface triangles use surface vertices
  // almost exclusively (box corners never appear in the kept mesh).
  ASSERT_EQ(tm.point_kinds.size(), tm.points.size());
  for (const auto& b : tm.boundary_tris) {
    for (const std::uint32_t v : b) {
      EXPECT_NE(tm.point_kinds[v], VertexKind::Box);
    }
  }
}

TEST(Integration, OpBudgetAbortsCleanly) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions opt;
  opt.threads = 2;
  opt.delta = 1.0;
  opt.op_budget = 50;  // far too small to finish
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_FALSE(out.livelocked);
  // The mesh must still be structurally sound mid-refinement.
  EXPECT_EQ(refiner.mesh().check_integrity(false), "");
}

TEST(Integration, TimelineRecordsMonotonicSamples) {
  const LabeledImage3D img = phantom::ball(28, 0.7);
  MeshingOptions opt;
  opt.threads = 4;
  opt.delta = 1.2;
  opt.record_timeline = true;
  opt.timeline_period_sec = 0.005;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);
  double last_wall = -1, last_overhead = -1;
  std::uint64_t last_ops = 0;
  for (const TimelineSample& s : out.timeline) {
    EXPECT_GT(s.wall_sec, last_wall);
    const double oh = s.contention_sec + s.loadbalance_sec + s.rollback_sec;
    EXPECT_GE(oh, last_overhead);
    EXPECT_GE(s.operations, last_ops);
    last_wall = s.wall_sec;
    last_overhead = oh;
    last_ops = s.operations;
  }
}

TEST(Integration, BaselinesAgreeOnVolume) {
  // PI2M, the sequential reference, and the PLC mesher must all fill
  // (approximately) the same object volume for the same input.
  const LabeledImage3D img = phantom::ball(32, 0.7);
  std::size_t fg = 0;
  for (Label l : img.raw()) fg += l != 0;
  const double vox_volume = static_cast<double>(fg);

  MeshingOptions popt;
  popt.delta = 1.6;
  popt.threads = 2;
  const MeshingResult pres = mesh_image(img, popt);
  ASSERT_TRUE(pres.ok());
  EXPECT_NEAR(evaluate_quality(pres.mesh).total_volume, vox_volume,
              0.15 * vox_volume);

  baselines::SeqMesherOptions sopt;
  sopt.delta = 1.6;
  const auto sres = baselines::mesh_image_reference(img, sopt);
  ASSERT_TRUE(sres.completed);
  EXPECT_NEAR(evaluate_quality(sres.mesh).total_volume, vox_volume,
              0.15 * vox_volume);

  const IsosurfaceOracle oracle(img, 1);
  baselines::PlcMesherOptions qopt;
  qopt.protect_radius = 1.4;
  const auto qres = baselines::mesh_volume_from_surface(pres.mesh, oracle, qopt);
  ASSERT_TRUE(qres.completed);
  EXPECT_NEAR(evaluate_quality(qres.mesh).total_volume, vox_volume,
              0.15 * vox_volume);
}

}  // namespace
}  // namespace pi2m
