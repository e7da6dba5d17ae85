// Optional mesh smoothing post-pass — the paper's stated future work
// ("mesh boundary smoothing is desirable for CFD simulations... the
// extension of our framework to support the computationally expensive step
// of volume-conserving smoothing in parallel is left for future work",
// §7-§8).
//
// This implements quality-guarded smart-Laplacian smoothing:
//  * interior vertices move toward the centroid of their neighbours;
//  * surface vertices move toward the centroid of their *surface*
//    neighbours and are re-projected onto ∂O through the oracle, so
//    fidelity is preserved while boundary triangles relax;
//  * a move is accepted only if no incident tetrahedron inverts, the worst
//    dihedral angle over the incident tetrahedra does not decrease, and
//    their worst radius-edge ratio ends at most max(its old value, 2).
// That is all the acceptance test guards. The radius-edge check is local:
// a tet next to an already-bad one may rise to that worse value, and the
// mesh-wide ρ bound is never re-checked. The boundary planar angle is not
// guarded at all: on the abdominal phantom (96³, δ = 0.8) --smooth 5
// lowered the minimum boundary angle from 30.1° to 18.2°.
// Passes are parallelized over vertices with an owner-computes coloring-free
// scheme (moves are staged, conflicts resolved by acceptance re-check).
#pragma once

#include "core/pi2m.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m {

struct SmoothingOptions {
  int iterations = 3;
  double relaxation = 0.5;  ///< step fraction toward the centroid
  bool smooth_surface = true;
  bool smooth_interior = true;
  int threads = 1;
};

struct SmoothingReport {
  std::size_t moves_accepted = 0;
  std::size_t moves_rejected = 0;
  double min_dihedral_before = 0;
  double min_dihedral_after = 0;
};

/// Smooths `mesh` in place. Requires the oracle the mesh was built from
/// (for surface re-projection).
SmoothingReport smooth_mesh(TetMesh& mesh, const IsosurfaceOracle& oracle,
                            const SmoothingOptions& opt = {});

}  // namespace pi2m
