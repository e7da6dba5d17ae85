#include <gtest/gtest.h>

#include "baselines/reference_mesher.hpp"
#include "core/pi2m.hpp"
#include "core/sizing.hpp"
#include "imaging/phantom.hpp"
#include "metrics/quality.hpp"

namespace pi2m {
namespace {

TEST(SeqMesher, BallPhantomTerminatesWithQuality) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions opt;
  opt.delta = 2.5;
  const baselines::ReferenceResult res =
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
  MeshingOptions opt;
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
  // the same knobs, otherwise Table 6's "similar size" protocol is broken.
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions opt;
  opt.threads = 1;
  opt.delta = 2.5;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);

  const auto res = baselines::mesh_image_reference(img, opt);
  ASSERT_TRUE(res.completed);
  const std::size_t pi2m_tets =
      extract_mesh(refiner.mesh(), refiner.oracle(), 1).num_tets();
  EXPECT_GT(res.mesh.num_tets(), pi2m_tets / 4);
  EXPECT_LT(res.mesh.num_tets(), pi2m_tets * 4);
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

  const auto res =
      baselines::mesh_volume_from_surface(surface, refiner.oracle(), popt);
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
  MeshingOptions opt;
  opt.delta = 2.5;
  const auto res = baselines::mesh_volume_from_surface(TetMesh{}, oracle, opt);
  EXPECT_TRUE(res.completed);  // terminates; box corners only
}

TEST(Baselines, StandInsHonourTheSizeFunction) {
  // The stand-ins read R5's sizing field from the same MeshingOptions as
  // PI2M: a uniform bound below the unconstrained circumradii refines more.
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions opt;
  opt.threads = 1;
  opt.delta = 2.5;
  const MeshingResult pi2m = mesh_image(img, opt);
  ASSERT_TRUE(pi2m.ok());
  MeshingOptions sized = opt;
  sized.size_function = sizing::uniform(2.0);

  const auto seq = baselines::mesh_image_reference(img, opt);
  const auto seq_sized = baselines::mesh_image_reference(img, sized);
  ASSERT_TRUE(seq.completed && seq_sized.completed);
  EXPECT_GT(seq_sized.mesh.num_tets(), seq.mesh.num_tets());

  const auto plc =
      baselines::mesh_volume_from_surface(pi2m.mesh, *pi2m.oracle, opt);
  const auto plc_sized =
      baselines::mesh_volume_from_surface(pi2m.mesh, *pi2m.oracle, sized);
  ASSERT_TRUE(plc.completed && plc_sized.completed);
  EXPECT_GT(plc_sized.mesh.num_tets(), plc.mesh.num_tets());
}

TEST(BaselinesDeath, StandInsRefuseAMissingDelta) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const LabeledImage3D img = phantom::ball(16, 0.6);
  const IsosurfaceOracle oracle(img, 1);
  const MeshingOptions opt;  // delta left at 0, as the Refiner refuses
  EXPECT_DEATH(baselines::mesh_image_reference(img, opt), "delta");
  EXPECT_DEATH(baselines::mesh_volume_from_surface(TetMesh{}, oracle, opt),
               "delta");
}

}  // namespace
}  // namespace pi2m
