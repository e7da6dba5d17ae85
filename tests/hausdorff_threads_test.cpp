// Thread-count independence of the Hausdorff estimate: both sampling loops
// run on the oracle's thread budget and must return bitwise the same
// distances at any count (run under TSan/ASan via the `sanitize` label).
#include <gtest/gtest.h>

#include "core/pi2m.hpp"
#include "imaging/isosurface.hpp"
#include "imaging/phantom.hpp"
#include "metrics/hausdorff.hpp"

namespace pi2m {
namespace {

TEST(HausdorffThreads, OracleKeepsItsThreadBudget) {
  const LabeledImage3D img = phantom::ball(12, 0.7);
  EXPECT_EQ(IsosurfaceOracle(img).threads(), 1);
  EXPECT_EQ(IsosurfaceOracle(img, 4).threads(), 4);
  EXPECT_EQ(IsosurfaceOracle(img, 0).threads(), 1);
  EXPECT_EQ(IsosurfaceOracle(img, -3).threads(), 1);
}

TEST(HausdorffThreads, BitwiseEqualAcrossOracleThreadCounts) {
  const LabeledImage3D img = phantom::ellipsoid(40);
  MeshingOptions opt;
  opt.delta = 1.0;
  opt.threads = 2;
  opt.interior = InteriorFill::Lattice;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_GT(res.outcome.lattice_tets, 0u);

  const HausdorffResult h1 =
      hausdorff_distance(res.mesh, IsosurfaceOracle(img, 1), 2);
  EXPECT_GT(h1.mesh_to_surface, 0.0);
  EXPECT_GT(h1.surface_to_mesh, 0.0);
  for (const int threads : {3, 4}) {
    const HausdorffResult h =
        hausdorff_distance(res.mesh, IsosurfaceOracle(img, threads), 2);
    EXPECT_EQ(h.mesh_to_surface, h1.mesh_to_surface) << threads;
    EXPECT_EQ(h.surface_to_mesh, h1.surface_to_mesh) << threads;
  }
}

}  // namespace
}  // namespace pi2m
