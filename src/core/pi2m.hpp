// Public API of the PI2M library.
//
// One call turns a multi-label segmented image into a quality tetrahedral
// mesh whose boundary faces lie on the recovered isosurfaces:
//
//   pi2m::MeshingOptions opt;
//   opt.delta = 2.0;                       // surface sample spacing (mm)
//   opt.threads = 8;
//   pi2m::MeshingResult res = pi2m::mesh_image(image, opt);
//   // res.mesh.points / res.mesh.tets / res.mesh.tet_labels ...
//
// The final mesh M is the set of tetrahedra whose circumcenter lies inside
// the object O (paper Fig. 1c / Theorem 1); every tetrahedron carries the
// label of the tissue containing its circumcenter, so multi-material
// conformity comes out directly.
#pragma once

#include <array>
#include <cstdint>

#include "core/refiner.hpp"
#include "imaging/image3d.hpp"

namespace pi2m {

/// A plain extracted tetrahedral mesh (value type, safe to keep after the
/// Refiner is destroyed).
struct TetMesh {
  std::vector<Vec3> points;
  std::vector<std::array<std::uint32_t, 4>> tets;  ///< indices into points
  std::vector<Label> tet_labels;                   ///< tissue per element
  /// Triangles separating different labels (including label 0 = outside):
  /// the recovered isosurface(s).
  std::vector<std::array<std::uint32_t, 3>> boundary_tris;
  std::vector<VertexKind> point_kinds;

  [[nodiscard]] std::size_t num_tets() const { return tets.size(); }
  [[nodiscard]] std::size_t num_points() const { return points.size(); }
};

/// Extracts the final mesh from a refined triangulation: keeps cells whose
/// circumcenter lies inside O, labels them by the tissue at the
/// circumcenter, and collects label-interface triangles.
///
/// With a non-null `lattice` (a hybrid run's fill, from Refiner::lattice())
/// the kernel cells covered by the structured region are dropped and the
/// BCC template tets are appended in their place, sharing the seeded
/// interface vertex indices — the stitched mesh is watertight across ∂L.
TetMesh extract_mesh(const DelaunayMesh& mesh, const IsosurfaceOracle& oracle,
                     int threads = 1,
                     const lattice::LatticeFill* lattice = nullptr);

struct MeshingOptions {
  /// Surface sample spacing δ (world units). The dominant knob: halving δ
  /// roughly multiplies the element count by 8 (paper §6.3's volume
  /// argument). Required.
  double delta = 0.0;
  double radius_edge_bound = 2.0;
  double min_planar_angle_deg = 30.0;
  SizeFunction size_function;  ///< optional volume sizing field (R5)

  /// Interior fill strategy: BCC-lattice bulk + Delaunay skin (default) or
  /// pure Delaunay refinement (`delaunay`, the pre-hybrid behaviour and the
  /// A/B baseline). Small images degrade to identical pure-Delaunay output.
  InteriorFill interior = InteriorFill::Lattice;
  /// Lattice cube size (world units); <= 0 = automatic (2δ).
  double lattice_spacing = 0.0;

  int threads = 1;
  CmKind contention_manager = CmKind::Local;
  LbKind load_balancer = LbKind::HWS;
  TopologySpec topology{};

  std::size_t max_vertices = std::size_t{1} << 22;
  std::size_t max_cells = std::size_t{1} << 24;
  double watchdog_sec = 30.0;

  /// A/B switches for the classification hot path (defaults = fast path):
  /// the generation-tagged geometry cache and the voxel-DDA oracle walks.
  bool use_geom_cache = true;
  bool use_reference_walks = false;

  /// Scheduler & memory-locality knobs (see RefinerOptions for semantics):
  /// pin workers to cpus, probe the host topology instead of the declared
  /// spec, fall back to the mutex scheduler, spin budget before parking.
  bool pin = false;
  bool topology_auto = false;
  bool mutex_scheduler = false;
  int park_spin_us = 50;

  /// Serving hooks (see RefinerOptions for semantics): cooperative
  /// cancellation checked at refinement-loop boundaries, and warm
  /// recycled arena storage for repeated meshes in one process.
  const std::atomic<bool>* cancel = nullptr;
  bool warm_arena = false;
};

struct MeshingResult {
  TetMesh mesh;
  RefineOutcome outcome;
  /// The oracle the mesh was refined against (the warm one when passed in),
  /// reusable for smoothing and fidelity reports.
  std::shared_ptr<const IsosurfaceOracle> oracle;
  double extract_sec = 0.0;  ///< extract_mesh wall time
  [[nodiscard]] bool ok() const { return outcome.completed; }
  [[nodiscard]] double elements_per_sec() const {
    return outcome.wall_sec > 0 ? static_cast<double>(mesh.num_tets()) /
                                      outcome.wall_sec
                                : 0.0;
  }
};

/// One-shot image-to-mesh conversion.
MeshingResult mesh_image(const LabeledImage3D& img, const MeshingOptions& opt);

/// Serving-path variant: re-uses a precomputed oracle (EDT cache hit; must
/// match `img` in content) instead of recomputing the feature transform.
/// Pass nullptr to fall back to the one-shot behaviour.
MeshingResult mesh_image(const LabeledImage3D& img, const MeshingOptions& opt,
                         std::shared_ptr<const IsosurfaceOracle> warm_oracle);

/// Translates the public options into refiner options (exposed for benches
/// that need to drive the Refiner directly).
RefinerOptions to_refiner_options(const MeshingOptions& opt);

}  // namespace pi2m
