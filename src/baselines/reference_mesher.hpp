// Reference-style sequential meshers — the stand-ins for CGAL and TetGen in
// the paper's single-threaded comparison (Table 6, Figures 7-9).
//
// Neither library is a dependency of this project (see DESIGN.md
// "Substitutions"); each stand-in implements the algorithm class its tool
// belongs to in straightforward "reference" C++, so the comparison against
// PI2M measures what the paper measures: the engineering gap between an
// optimized concurrent implementation (run on one thread, locks and all)
// and a clean sequential one. Absolute CGAL/TetGen numbers are not claimed.
//
// Both share one sequential scaffold: a growing vector-based triangulation
// (delaunay/local_dt in incremental mode, faces glued through its hash
// table) over the image box inflated like PI2M's virtual box, bootstrapped
// with the box corners; a worst-element-first (largest circumradius)
// std::priority_queue whose stale entries are skipped when popped;
// per-operation container allocations; and an extraction that labels each
// tet by its circumcenter and remaps vertices through a std::map. On top
// sit two rule sets:
//
//  * mesh_image_reference (CGAL Mesh_3 class): restricted-Delaunay
//    refinement of a labeled image with PI2M's rules R1-R5, but without
//    removals: a circumcenter within 0.1δ of a surface sample is rejected
//    and the encroached surface split instead.
//  * mesh_volume_from_surface (TetGen class, PLC-based, paper §2/§7): takes
//    a recovered isosurface as input (its points of surface kind become the
//    boundary sample) and refines only the enclosed volume by R4/R5,
//    rejecting circumcenters within 0.9δ of a boundary vertex. In/out
//    classification uses the given oracle (the paper instead places
//    per-tissue seed points, which it notes is fragile for thin tissues; an
//    oracle is the robust equivalent). Like TetGen, its output carries no
//    vertex kinds: every point reads VertexKind::Circumcenter.
//
// Both read the rule knobs of MeshingOptions (delta, radius_edge_bound,
// min_planar_angle_deg, size_function, op_budget) and refuse δ <= 0 as the
// Refiner does.
#pragma once

#include "core/pi2m.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m::baselines {

struct ReferenceResult {
  TetMesh mesh;
  /// Meshing time; for mesh_image_reference it includes the EDT, as the
  /// paper reports for PI2M.
  double wall_sec = 0.0;
  double edt_sec = 0.0;  ///< 0 for mesh_volume_from_surface
  std::uint64_t insertions = 0;
  bool completed = false;  ///< the queue drained within op_budget
};

/// The CGAL stand-in: meshes a labeled image from scratch.
ReferenceResult mesh_image_reference(const LabeledImage3D& img,
                                     const MeshingOptions& opt);

/// The TetGen stand-in: `surface` supplies the boundary sample and `oracle`
/// the in/out and label queries for element classification.
ReferenceResult mesh_volume_from_surface(const TetMesh& surface,
                                         const IsosurfaceOracle& oracle,
                                         const MeshingOptions& opt);

}  // namespace pi2m::baselines
