// Structural validation of extracted meshes — the checks a downstream FE
// user runs before trusting a mesh. Complements DelaunayMesh's internal
// invariant checks (which operate on the live triangulation) by validating
// the exported value type.
#pragma once

#include <string>
#include <vector>

#include "core/pi2m.hpp"

namespace pi2m {

struct MeshValidation {
  bool ok = false;
  std::vector<std::string> errors;  ///< empty when ok

  // Informational:
  std::size_t connected_components = 0;
  std::size_t boundary_edges_nonmanifold = 0;
  /// Elements whose volume is below a relative epsilon of the bounding-box
  /// scale (near-degenerate slivers). Valid for FE assembly but poison for
  /// conditioning; reported, not fatal.
  std::size_t sliver_elements = 0;
};

/// Checks:
///  * index ranges and parallel-array sizes;
///  * every tetrahedron is positively oriented by the *exact* orient3d
///    predicate (coplanar or inverted elements are errors — a floating-
///    point volume of "0.0" would miss inverted slivers whose computed
///    volume rounds to a positive value), plus a nonzero label;
///  * near-degenerate slivers (volume below 1e-12 x bbox-diagonal^3) are
///    counted in sliver_elements;
///  * face conformity: every interior face is shared by exactly 2 tets and
///    every tet face is either interior or listed in boundary_tris;
///  * boundary edge manifoldness (each boundary edge on exactly 2 boundary
///    triangles), reported but not fatal (multi-material junction lines
///    legitimately have >2);
///  * counts connected components of the element graph.
/// Every pass runs on `threads` threads (0 = post_threads(tets)): the
/// element checks on tet blocks, the face, boundary and edge checks on
/// vertex ranges. The result, `errors` order included, is the same at any
/// thread count.
MeshValidation validate_mesh(const TetMesh& mesh, int threads = 0);

}  // namespace pi2m
