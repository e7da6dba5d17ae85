#include <gtest/gtest.h>

#include "baselines/plc_mesher.hpp"
#include "baselines/seq_mesher.hpp"
#include "core/refiner.hpp"
#include "imaging/phantom.hpp"
#include "metrics/quality.hpp"

namespace pi2m {
namespace {

TEST(SeqMesher, BallPhantomTerminatesWithQuality) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  baselines::SeqMesherOptions opt;
  opt.delta = 2.5;
  const baselines::SeqMesherResult res =
      baselines::mesh_image_reference(img, opt);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.mesh.num_tets(), 50u);
  EXPECT_GT(res.insertions, 0u);

  const QualityReport q = evaluate_quality(res.mesh);
  // Same bound as PI2M, same small numerical slack.
  std::size_t violations = 0;
  for (std::size_t i = 0; i < q.radius_edge_histogram.size(); ++i) {
    if (i * 0.25 >= 2.1) violations += q.radius_edge_histogram[i];
  }
  EXPECT_LE(violations, q.num_tets / 20 + 2);
}

TEST(SeqMesher, MultiLabelImage) {
  const LabeledImage3D img = phantom::concentric_shells(20);
  baselines::SeqMesherOptions opt;
  opt.delta = 2.5;
  const auto res = baselines::mesh_image_reference(img, opt);
  ASSERT_TRUE(res.completed);
  bool has1 = false, has2 = false;
  for (Label l : res.mesh.tet_labels) {
    has1 = has1 || l == 1;
    has2 = has2 || l == 2;
  }
  EXPECT_TRUE(has1);
  EXPECT_TRUE(has2);
}

TEST(SeqMesher, ComparableSizeToPi2m) {
  // The stand-in must produce meshes in the same size class as PI2M for
  // the same delta, otherwise Table 6's "similar size" protocol is broken.
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions popt;
  popt.threads = 1;
  popt.delta = 2.5;
  Refiner refiner(img, popt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);

  baselines::SeqMesherOptions sopt;
  sopt.delta = 2.5;
  const auto res = baselines::mesh_image_reference(img, sopt);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.mesh.num_tets(), out.mesh_cells / 4);
  EXPECT_LT(res.mesh.num_tets(), out.mesh_cells * 4);
}

TEST(PlcMesher, FillsVolumeFromRecoveredSurface) {
  // Paper protocol: hand the PLC mesher the isosurface recovered by PI2M.
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions popt;
  popt.threads = 1;
  popt.delta = 2.5;
  Refiner refiner(img, popt);
  ASSERT_TRUE(refiner.refine().completed);
  const TetMesh surface = extract_mesh(refiner.mesh(), refiner.oracle(), 1);

  baselines::PlcMesherOptions opt;
  opt.protect_radius = 1.5;
  const auto res =
      baselines::mesh_volume_from_surface(surface, refiner.oracle(), opt);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.mesh.num_tets(), 50u);

  // The volume filled must be close to the object's voxel volume.
  const QualityReport q = evaluate_quality(res.mesh);
  std::size_t fg = 0;
  for (Label l : img.raw()) fg += l != 0;
  EXPECT_NEAR(q.total_volume, static_cast<double>(fg), 0.25 * fg);
}

TEST(PlcMesher, EmptySurfaceYieldsNothingUseful) {
  const LabeledImage3D img = phantom::ball(16, 0.6);
  const IsosurfaceOracle oracle(img, 1);
  baselines::PlcMesherOptions opt;
  const auto res = baselines::mesh_volume_from_surface(TetMesh{}, oracle, opt);
  EXPECT_TRUE(res.completed);  // terminates; box corners only
}

}  // namespace
}  // namespace pi2m
