#include "core/refiner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pi2m.hpp"
#include "geometry/tetra.hpp"
#include "imaging/phantom.hpp"

namespace pi2m {
namespace {

MeshingOptions base_options(double delta, int threads) {
  MeshingOptions opt;
  opt.threads = threads;
  opt.delta = delta;
  opt.watchdog_sec = 60.0;
  return opt;
}

/// The final mesh M of a finished run, as extraction decides it.
TetMesh final_mesh(const Refiner& refiner) {
  return extract_mesh(refiner.mesh(), refiner.oracle(), 1, refiner.lattice());
}

/// Quality / fidelity assertions every refined mesh must satisfy.
void check_refined(Refiner& refiner, const RefineOutcome& out) {
  ASSERT_TRUE(out.completed) << "livelock=" << out.livelocked
                             << " budget=" << out.budget_exhausted;

  DelaunayMesh& mesh = refiner.mesh();
  // Invariants: adjacency + orientation always; the full Delaunay check is
  // quadratic so only run it for small meshes.
  const bool small = mesh.count_alive_cells() < 4000;
  EXPECT_EQ(mesh.check_integrity(small), "");

  // The triangulation must still tile the virtual box.
  const Vec3 ext = mesh.box().extent();
  EXPECT_NEAR(mesh.total_volume(), ext.x * ext.y * ext.z,
              1e-6 * ext.x * ext.y * ext.z);

  // No leaked vertex locks.
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    ASSERT_EQ(mesh.vertex(v).owner.load(), -1) << "leaked lock " << v;
  }

  // Quality: elements of the final mesh (circumcenter inside O, counted here
  // by a reference scan that must agree with extraction) satisfy the
  // radius-edge bound. The theory guarantees rho <= 2; floating point can
  // nudge individual elements slightly above (paper §7 notes the same), so
  // assert a small tolerance and that violations are rare.
  const auto& oracle = refiner.oracle();
  std::size_t elements = 0, rho_violations = 0;
  mesh.for_each_alive_cell([&](CellId c) {
    const auto p = mesh.positions(c);
    const Circumsphere cs = circumsphere(p[0], p[1], p[2], p[3]);
    if (!cs.valid || !oracle.inside(cs.center)) return;
    ++elements;
    const double rho = radius_edge_ratio(p[0], p[1], p[2], p[3]);
    if (rho > refiner.options().radius_edge_bound * 1.05) ++rho_violations;
  });
  EXPECT_GT(elements, 0u);
  EXPECT_EQ(elements, final_mesh(refiner).num_tets());
  EXPECT_LE(rho_violations, elements / 50 + 2)
      << rho_violations << " of " << elements << " elements exceed the bound";
}

TEST(RefinerSeq, BallPhantomTerminatesWithQuality) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  Refiner refiner(img, base_options(/*delta=*/2.5, /*threads=*/1));
  const RefineOutcome out = refiner.refine();
  check_refined(refiner, out);
  EXPECT_GT(out.rule_counts[static_cast<int>(Rule::R1)], 0u);
  EXPECT_GT(final_mesh(refiner).num_points(), 8u);
}

TEST(RefinerSeq, MultiLabelShellsRecoverBothInterfaces) {
  const LabeledImage3D img = phantom::concentric_shells(24);
  Refiner refiner(img, base_options(2.5, 1));
  const RefineOutcome out = refiner.refine();
  check_refined(refiner, out);

  // Extraction must contain both labels and interface triangles.
  const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
  bool has1 = false, has2 = false;
  for (Label l : tm.tet_labels) {
    has1 = has1 || l == 1;
    has2 = has2 || l == 2;
  }
  EXPECT_TRUE(has1);
  EXPECT_TRUE(has2);
  EXPECT_GT(tm.boundary_tris.size(), 0u);
}

TEST(RefinerSeq, SurfaceVerticesLieOnIsosurface) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  Refiner refiner(img, base_options(2.5, 1));
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);

  // Every Isosurface/SurfaceCenter vertex must lie on the isosurface. The
  // oracle's own closest_surface_point is voxel-quantized (it refines from
  // the nearest surface *voxel*), so the distance it reports for a point
  // already on ∂O can be up to about one voxel diagonal; use that bound and
  // additionally verify the analytic sphere distance, which is exact.
  const auto& oracle = refiner.oracle();
  const DelaunayMesh& mesh = refiner.mesh();
  const Vec3 c{(24 - 1) * 0.5, (24 - 1) * 0.5, (24 - 1) * 0.5};
  const double r = 0.7 * (24 - 1) * 0.5;
  std::size_t surface_vertices = 0;
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const Vertex& vert = mesh.vertex(v);
    if (vert.dead.load() || !on_surface(vert.kind)) continue;
    ++surface_vertices;
    const auto q = oracle.closest_surface_point(mesh.position(v));
    ASSERT_TRUE(q.has_value());
    // This self-distance is bounded by ~1.5 voxel diagonals: feature-voxel
    // quantization plus the sideways axis-refinement fallback. The precise
    // on-surface property is asserted by the analytic check below.
    EXPECT_LT(distance(mesh.position(v), *q), 1.5 * std::sqrt(3.0)) << "vertex " << v;
    // Voxelized sphere boundary lies within half a voxel diagonal of the
    // analytic sphere; bisection adds sub-voxel error.
    EXPECT_NEAR(distance(mesh.position(v), c), r, 1.1) << "vertex " << v;
  }
  EXPECT_GT(surface_vertices, 20u);
}

TEST(RefinerSeq, DeltaControlsMeshSize) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  Refiner coarse(img, base_options(4.0, 1));
  Refiner fine(img, base_options(2.0, 1));
  const RefineOutcome oc = coarse.refine();
  const RefineOutcome of = fine.refine();
  ASSERT_TRUE(oc.completed);
  ASSERT_TRUE(of.completed);
  // Halving delta multiplies the element count by roughly 8 (volume
  // argument, paper §6.3); demand at least 3x to keep the test robust.
  EXPECT_GT(final_mesh(fine).num_tets(), 3 * final_mesh(coarse).num_tets());
}

TEST(RefinerSeq, SizeFunctionDrivesR5) {
  const LabeledImage3D img = phantom::ball(24, 0.7);
  MeshingOptions opt = base_options(3.0, 1);
  MeshingOptions opt_sized = base_options(3.0, 1);
  opt_sized.size_function = sizing::uniform(2.0);
  Refiner plain(img, opt);
  Refiner sized(img, opt_sized);
  const RefineOutcome op = plain.refine();
  const RefineOutcome os = sized.refine();
  ASSERT_TRUE(op.completed);
  ASSERT_TRUE(os.completed);
  EXPECT_GT(os.rule_counts[static_cast<int>(Rule::R5)], 0u);
  EXPECT_GT(final_mesh(sized).num_tets(), final_mesh(plain).num_tets());
}

TEST(RefinerSeq, RemovalsHappen) {
  const LabeledImage3D img = phantom::ball(28, 0.7);
  MeshingOptions opt = base_options(2.0, 1);
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);
  // R6 removals fire during surface recovery (a few % of operations in the
  // paper; nonzero here).
  EXPECT_GT(out.totals.removals, 0u);
}

class RefinerParallel
    : public ::testing::TestWithParam<std::tuple<int, CmKind, LbKind>> {};

TEST_P(RefinerParallel, MatchesSequentialInvariants) {
  const auto [threads, cm, lb] = GetParam();
  const LabeledImage3D img = phantom::concentric_shells(20);
  MeshingOptions opt = base_options(2.5, threads);
  opt.contention_manager = cm;
  opt.load_balancer = lb;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  check_refined(refiner, out);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RefinerParallel,
    ::testing::Values(
        std::make_tuple(2, CmKind::Local, LbKind::HWS),
        std::make_tuple(4, CmKind::Local, LbKind::HWS),
        std::make_tuple(4, CmKind::Local, LbKind::RWS),
        std::make_tuple(4, CmKind::Global, LbKind::HWS),
        std::make_tuple(4, CmKind::Global, LbKind::RWS),
        std::make_tuple(4, CmKind::Random, LbKind::HWS),
        std::make_tuple(3, CmKind::Aggressive, LbKind::RWS),
        std::make_tuple(8, CmKind::Local, LbKind::HWS)));

TEST(RefinerParallelLarge, EightThreadsAbdominalPhantom) {
  const LabeledImage3D img = phantom::abdominal(32, 32, 32);
  MeshingOptions opt = base_options(2.0, 8);
  opt.topology = {2, 2};  // 2 cores/socket, 2 sockets/blade -> 2 blades
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  check_refined(refiner, out);
  // With 8 threads on a 2-blade virtual topology some work must have been
  // balanced; the begging lists should have seen traffic.
  EXPECT_GT(out.totals.total_steals(), 0u);
}

TEST(MeshImage, PublicApiEndToEnd) {
  const LabeledImage3D img = phantom::ball(20, 0.7);
  MeshingOptions opt;
  opt.delta = 2.5;
  opt.threads = 2;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.mesh.num_tets(), 0u);
  EXPECT_EQ(res.mesh.tets.size(), res.mesh.tet_labels.size());
  EXPECT_GT(res.mesh.boundary_tris.size(), 0u);
  // All point indices must be in range.
  for (const auto& t : res.mesh.tets) {
    for (std::uint32_t v : t) EXPECT_LT(v, res.mesh.num_points());
  }
  for (const auto& f : res.mesh.boundary_tris) {
    for (std::uint32_t v : f) EXPECT_LT(v, res.mesh.num_points());
  }
}

}  // namespace
}  // namespace pi2m
