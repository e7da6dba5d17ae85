// Hybrid interior fill (BCC-lattice bulk + Delaunay skin): template
// geometry (positive orientation, disphenoid dihedral floor), the fidelity
// band (no template vertex within 2δ of ∂O), the stitched mesh's
// watertightness/validation, Hausdorff parity with the pure-Delaunay mode,
// the byte-identical degradation when no deep-interior band exists, the
// interface seeding at 1/2/4 threads, a multi-threaded hybrid run under
// the exact-arithmetic auditor, and the reuse of a hybrid run's options
// (run under TSan/ASan via the `sanitize` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <set>

#include "check/auditor.hpp"
#include "check/snapshot.hpp"
#include "core/pi2m.hpp"
#include "core/refiner.hpp"
#include "core/validate.hpp"
#include "geometry/tetra.hpp"
#include "imaging/phantom.hpp"
#include "lattice/lattice_fill.hpp"
#include "metrics/hausdorff.hpp"

namespace pi2m {
namespace {

constexpr double kDelta = 1.0;

const LabeledImage3D& volume_phantom() {
  static const LabeledImage3D img = phantom::ellipsoid(48);
  return img;
}

TEST(LatticeFill, NamesRoundTrip) {
  EXPECT_STREQ(interior_name(InteriorFill::Lattice), "lattice");
  EXPECT_STREQ(interior_name(InteriorFill::Delaunay), "delaunay");
  EXPECT_EQ(parse_interior_name("lattice"), InteriorFill::Lattice);
  EXPECT_EQ(parse_interior_name("delaunay"), InteriorFill::Delaunay);
  EXPECT_FALSE(parse_interior_name("voronoi").has_value());
}

TEST(LatticeFill, TemplatesArePositiveDisphenoidsInsideTheBand) {
  const IsosurfaceOracle oracle(volume_phantom(), 2);
  const lattice::LatticeFill fill(oracle, kDelta, 0.0, 2);
  ASSERT_FALSE(fill.empty());
  const lattice::LatticeStats& st = fill.stats();
  EXPECT_EQ(fill.cube_size(), 2.0 * kDelta);  // automatic spacing
  EXPECT_EQ(st.tets, 4 * st.faces);
  EXPECT_GT(st.interface_vertices, 0u);

  std::size_t count = 0;
  fill.for_each_tet([&](const std::array<std::uint64_t, 4>& keys,
                        const std::array<Vec3, 4>& p, Label label) {
    ++count;
    EXPECT_EQ(label, 1);
    // Positive orientation (the extraction appends these verbatim).
    EXPECT_GT(signed_volume(p[0], p[1], p[2], p[3]), 0.0);
    // Tetragonal disphenoid: dihedral angles exactly 60/90 degrees.
    for (const double ang : dihedral_angles(p[0], p[1], p[2], p[3])) {
      EXPECT_GT(ang, 59.0);
      EXPECT_LT(ang, 91.0);
    }
    // The fidelity band: no template vertex comes within 2δ of ∂O (exact
    // oracle query, not the EDT lower bound), and every vertex sits in the
    // tet's material.
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(oracle.ball_intersects_surface(p[i], 2.0 * kDelta));
      EXPECT_EQ(oracle.label_at(p[i]), label);
      // point_of(key) is the exact position used everywhere (stitching
      // relies on bit-identical shared coordinates).
      const Vec3 q = fill.point_of(keys[i]);
      EXPECT_EQ(std::memcmp(&q, &p[i], sizeof(Vec3)), 0);
    }
    // Template centroids are inside L; the guard zone covers L.
    const Vec3 centroid = 0.25 * (p[0] + p[1] + p[2] + p[3]);
    Label got = 0;
    EXPECT_TRUE(fill.contains(centroid, &got));
    EXPECT_EQ(got, label);
    EXPECT_TRUE(fill.protects(centroid));
  });
  EXPECT_EQ(count, st.tets);

  // Points far outside the object are in neither L nor G.
  EXPECT_FALSE(fill.contains({0.5, 0.5, 0.5}));
  EXPECT_FALSE(fill.protects({0.5, 0.5, 0.5}));
}

TEST(LatticeFill, HybridMeshIsWatertightAndAuditClean) {
  MeshingOptions opt;
  opt.threads = 4;
  opt.delta = kDelta;
  opt.audit_final = true;
  Refiner refiner(volume_phantom(), opt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.audit_errors.empty());
  ASSERT_NE(refiner.lattice(), nullptr);
  EXPECT_GT(out.lattice_tets, 0u);
  EXPECT_GT(out.lattice_seeds, 0u);

  const TetMesh tm = extract_mesh(refiner.mesh(), refiner.oracle(),
                                  opt.threads, refiner.lattice());
  ASSERT_GT(tm.num_tets(), out.lattice_tets);

  // The stitched mesh passes full structural validation: positive volumes,
  // face conformity across the lattice/shell interface ∂L, watertight
  // label boundaries.
  const MeshValidation v = validate_mesh(tm);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());

  // Template tets are exactly the tets whose centroid lies in L: extraction
  // drops every kernel cell with centroid in L and appends the templates in
  // their place. (All-Lattice vertex kinds would overcount — the stitch
  // ring between the wall and rind seeds is made of ordinary Delaunay cells
  // whose corners all happen to be seeded lattice points.) Every template
  // meets the disphenoid quality floor the hybrid fill promises: dihedral
  // angles of exactly 60/90 degrees, asserted at >= 59 for fp slack.
  std::size_t lattice_tets = 0;
  for (std::size_t i = 0; i < tm.tets.size(); ++i) {
    const auto& t = tm.tets[i];
    const Vec3 centroid = 0.25 * (tm.points[t[0]] + tm.points[t[1]] +
                                  tm.points[t[2]] + tm.points[t[3]]);
    if (!refiner.lattice()->contains(centroid)) continue;
    ++lattice_tets;
    // Templates are built from seeded + fresh lattice points only.
    for (const std::uint32_t vi : t) {
      EXPECT_EQ(tm.point_kinds[vi], VertexKind::Lattice);
    }
    const auto angs = dihedral_angles(tm.points[t[0]], tm.points[t[1]],
                                      tm.points[t[2]], tm.points[t[3]]);
    EXPECT_GE(*std::min_element(angs.begin(), angs.end()), 59.0);
  }
  EXPECT_EQ(lattice_tets, out.lattice_tets);

  // The lattice is strictly interior: recovered isosurface triangles never
  // use lattice vertices.
  for (const auto& b : tm.boundary_tris) {
    for (const std::uint32_t vi : b) {
      EXPECT_NE(tm.point_kinds[vi], VertexKind::Lattice);
    }
  }
}

/// Seeding tests run at a finer δ than the rest: the smaller lattice
/// spacing yields enough interface points that the densest BRIO rounds are
/// split across threads.
constexpr double kSeedDelta = 0.5;

/// Seeds `img`'s interface lattice points into a fresh kernel mesh with
/// `threads` seeding threads, checks the seeded triangulation, and returns
/// its canonical snapshot hash.
std::uint64_t seed_and_check(const LabeledImage3D& img, int threads) {
  const IsosurfaceOracle oracle(img, 2);
  lattice::LatticeFill fill(oracle, kSeedDelta, 0.0, 4);
  const std::size_t n = fill.stats().interface_vertices;
  EXPECT_GT(n, 0u);
  // The insertion order is a property of the point set alone, not of the
  // thread count the fill was built with.
  EXPECT_EQ(fill.interface_keys(),
            lattice::LatticeFill(oracle, kSeedDelta, 0.0, 1).interface_keys());

  const Aabb ib = img.bounds();
  DelaunayMesh mesh(ib.inflated(0.15 * norm(ib.extent())), 1u << 20,
                    1u << 23, /*arena_block=*/256);
  std::vector<OpScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpScratch*> ptrs;
  for (OpScratch& s : scratch) ptrs.push_back(&s);
  const std::size_t deferred = fill.seed_interface(mesh, ptrs);
  if (threads == 1) {
    EXPECT_EQ(deferred, 0u);
  }
  EXPECT_LE(deferred, n);

  // Every interface key is a live lattice vertex at exactly point_of(key),
  // and the kernel holds no other lattice vertex.
  std::set<VertexId> ids;
  for (const std::uint64_t key : fill.interface_keys()) {
    const VertexId v = fill.seeded_vertex(key);
    EXPECT_NE(v, kNoVertex);
    if (v == kNoVertex) continue;
    const Vertex& vx = mesh.vertex(v);
    EXPECT_FALSE(vx.dead.load());
    EXPECT_EQ(vx.kind, VertexKind::Lattice);
    const Vec3 q = fill.point_of(key);
    EXPECT_EQ(std::memcmp(&q, &vx.pos, sizeof(Vec3)), 0);
    ids.insert(v);
  }
  EXPECT_EQ(ids.size(), n);
  std::size_t live_lattice = 0;
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const Vertex& vx = mesh.vertex(v);
    if (!vx.dead.load() && vx.kind == VertexKind::Lattice) ++live_lattice;
    // No seeding thread leaked a vertex lock.
    EXPECT_EQ(vx.owner.load(), -1) << "leaked lock on " << v;
  }
  EXPECT_EQ(live_lattice, n);

  // Full structural audit with the exact local Delaunay check on every face.
  check::InvariantAuditor auditor(mesh, /*insphere_sample=*/1);
  const check::AuditReport rep = auditor.audit_full();
  EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors.front());

  // A disphenoid's circumsphere is strictly empty of every other BCC
  // point, so each template tet whose four corners were all seeded is a
  // kernel cell, whatever the insertion order was.
  std::set<std::array<VertexId, 4>> cells;
  mesh.for_each_alive_cell([&](CellId c) {
    std::array<VertexId, 4> v = mesh.cell(c).v;
    std::sort(v.begin(), v.end());
    cells.insert(v);
  });
  std::size_t all_seeded = 0, missing = 0;
  fill.for_each_tet([&](const std::array<std::uint64_t, 4>& keys,
                        const std::array<Vec3, 4>&, Label) {
    std::array<VertexId, 4> v;
    for (int i = 0; i < 4; ++i) {
      v[static_cast<std::size_t>(i)] = fill.seeded_vertex(keys[i]);
      if (v[static_cast<std::size_t>(i)] == kNoVertex) return;
    }
    std::sort(v.begin(), v.end());
    ++all_seeded;
    if (cells.count(v) == 0) ++missing;
  });
  EXPECT_GT(all_seeded, 0u);
  EXPECT_EQ(missing, 0u) << "of " << all_seeded << " all-seeded disphenoids";

  return check::snapshot_hash(check::snapshot_mesh(mesh));
}

class LatticeSeeding : public ::testing::TestWithParam<int> {};

TEST_P(LatticeSeeding, EllipsoidInterfaceIsConformingAndAuditClean) {
  seed_and_check(volume_phantom(), GetParam());
}

TEST_P(LatticeSeeding, ThickShellInterfaceIsConformingAndAuditClean) {
  static const LabeledImage3D img = phantom::thick_shell(64);
  seed_and_check(img, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, LatticeSeeding, ::testing::Values(1, 2, 4));

TEST(LatticeSeedingDeterminism, OneThreadRunsAreIdentical) {
  EXPECT_EQ(seed_and_check(volume_phantom(), 1),
            seed_and_check(volume_phantom(), 1));
}

TEST(LatticeFill, HybridMatchesDelaunayFidelity) {
  MeshingOptions base;
  base.delta = 1.2;
  base.threads = 2;

  MeshingOptions hybrid = base;
  hybrid.interior = InteriorFill::Lattice;
  const MeshingResult rh = mesh_image(volume_phantom(), hybrid);
  ASSERT_TRUE(rh.ok());
  ASSERT_GT(rh.outcome.lattice_tets, 0u);

  MeshingOptions pure = base;
  pure.interior = InteriorFill::Delaunay;
  const MeshingResult rd = mesh_image(volume_phantom(), pure);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.outcome.lattice_tets, 0u);

  // Equal surface fidelity: the lattice never touches the shell within 2δ
  // of ∂O, so both modes sample the isosurface identically (Theorem 1's
  // bound applies to both). Allow fp-level slack only.
  const IsosurfaceOracle oracle(volume_phantom(), 2);
  const double hh = hausdorff_distance(rh.mesh, oracle, 2).symmetric();
  const double hd = hausdorff_distance(rd.mesh, oracle, 2).symmetric();
  EXPECT_LT(hh, 2.0 * base.delta);
  EXPECT_LT(hd, 2.0 * base.delta);
  EXPECT_LT(hh, 1.5 * hd + 1e-9);
}

TEST(LatticeFill, EmptyBandDegradesToByteIdenticalDelaunay) {
  // A small object at a coarse δ has no deep-interior band: the hybrid
  // default must degrade to the pure-Delaunay path, byte for byte.
  const LabeledImage3D img = phantom::ball(16, 0.7);
  MeshingOptions opt;
  opt.delta = 2.0;
  opt.threads = 1;

  opt.interior = InteriorFill::Lattice;
  const MeshingResult a = mesh_image(img, opt);
  opt.interior = InteriorFill::Delaunay;
  const MeshingResult b = mesh_image(img, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.outcome.lattice_cubes, 0u);
  EXPECT_EQ(a.outcome.lattice_tets, 0u);

  ASSERT_EQ(a.mesh.num_points(), b.mesh.num_points());
  EXPECT_EQ(std::memcmp(a.mesh.points.data(), b.mesh.points.data(),
                        a.mesh.points.size() * sizeof(Vec3)),
            0);
  EXPECT_EQ(a.mesh.tets, b.mesh.tets);
  EXPECT_EQ(a.mesh.tet_labels, b.mesh.tet_labels);
  EXPECT_EQ(a.mesh.boundary_tris, b.mesh.boundary_tris);
  EXPECT_EQ(a.mesh.point_kinds, b.mesh.point_kinds);
}

// Refiner::options() hands back the options the refiner was given. A hybrid
// run must not leave its own lattice guard in them: a second refiner built
// from them in Delaunay mode would classify against the first one's guard
// zone (a wrong mesh), or read its freed fill once the first is destroyed.
TEST(LatticeFill, OptionsOfAHybridRunReuseCleanly) {
  const auto hash_of = [](const Refiner& r) {
    return check::snapshot_hash(check::snapshot_mesh(r.mesh()));
  };
  MeshingOptions opt;
  opt.delta = kDelta;
  opt.threads = 1;
  opt.interior = InteriorFill::Delaunay;
  Refiner fresh(volume_phantom(), opt);
  ASSERT_TRUE(fresh.refine().completed);

  opt.interior = InteriorFill::Lattice;
  for (const bool destroy_a : {false, true}) {
    auto a = std::make_unique<Refiner>(volume_phantom(), opt);
    ASSERT_TRUE(a->refine().completed);
    ASSERT_NE(a->lattice(), nullptr);
    MeshingOptions reused = a->options();
    reused.interior = InteriorFill::Delaunay;
    Refiner b(volume_phantom(), reused);
    if (destroy_a) a.reset();
    ASSERT_TRUE(b.refine().completed);
    EXPECT_EQ(b.lattice(), nullptr);
    EXPECT_EQ(hash_of(b), hash_of(fresh)) << "destroy_a=" << destroy_a;
  }
}

TEST(LatticeFill, MultiMaterialCoreFillsWithoutBreakingInterfaces) {
  // thick_shell: a solid core (label 1) inside a thick shell (label 2). At
  // this δ only the core is deep enough to fill — the lattice must stay
  // inside one material while the shell and both isosurfaces remain pure
  // Delaunay and conforming.
  const LabeledImage3D img = phantom::thick_shell(64);
  MeshingOptions opt;
  opt.delta = 1.0;
  opt.threads = 4;
  const MeshingResult res = mesh_image(img, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.outcome.lattice_tets, 0u);

  const std::set<Label> labels(res.mesh.tet_labels.begin(),
                               res.mesh.tet_labels.end());
  EXPECT_TRUE(labels.count(1));
  EXPECT_TRUE(labels.count(2));

  // Every template (all-lattice) tet carries the core label.
  for (std::size_t i = 0; i < res.mesh.tets.size(); ++i) {
    const auto& t = res.mesh.tets[i];
    if (std::all_of(t.begin(), t.end(), [&](std::uint32_t vi) {
          return res.mesh.point_kinds[vi] == VertexKind::Lattice;
        })) {
      EXPECT_EQ(res.mesh.tet_labels[i], 1);
    }
  }

  const MeshValidation v = validate_mesh(res.mesh);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
}

}  // namespace
}  // namespace pi2m
