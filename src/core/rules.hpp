// The refinement rules R1-R6 (paper §3).
//
//  R1  circumball of t intersects ∂O, closest surface point ẑ=ĉ(t) is
//      δ-far from every existing isosurface vertex        -> insert ẑ
//  R2  circumball of t intersects ∂O and r(t) > 2δ        -> insert c(t)
//  R3  a facet's Voronoi edge V(f) crosses ∂O at c_surf and the facet has a
//      planar angle < 30° or a vertex off the isosurface  -> insert c_surf
//  R4  c(t) inside O and radius-edge ratio > 2            -> insert c(t)
//  R5  c(t) inside O and r(t) > sf(c(t))                  -> insert c(t)
//  R6  circumcenters closer than 2δ to an isosurface vertex are deleted
//      (triggered after each surface-vertex insertion; see Refiner).
//
// R1/R2 create the dense surface sample of Theorem 1 (fidelity); R3/R4
// enforce quality; R5 the user sizing field; R6 guarantees termination.
#pragma once

#include <cstdint>

#include "core/spatial_grid.hpp"
#include "delaunay/geom_cache.hpp"
#include "delaunay/mesh.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m {

struct MeshingOptions;

namespace lattice {
class LatticeFill;
}

enum class Rule : std::uint8_t { None = 0, R1, R2, R3, R4, R5 };

const char* to_string(Rule r);

struct Classification {
  Rule rule = Rule::None;
  Vec3 point{};          ///< the point the rule inserts
  VertexKind kind = VertexKind::Circumcenter;
};

/// Classifies an alive cell against R1-R5 in paper order, with the rule
/// thresholds of `opt` (delta, radius_edge_bound, min_planar_angle_deg,
/// size_function). `iso_grid` holds the already-inserted surface vertices
/// (for R1's packing check).
///
/// Hybrid interior fill: when `fill` is non-null, no rule may insert a
/// point inside the lattice guard zone (LatticeFill::protects), so
/// refinement never encroaches the structured region or its interface
/// circumspheres. A blocked rule falls through to the next one; a cell with
/// every applicable rule blocked classifies as Rule::None (no requeue, so
/// termination is preserved). Surface points (R1/R3) are never blocked: the
/// occupancy band keeps the guard zone >= 2δ away from ∂O.
///
/// Safe to call without holding locks: positions are immutable, and a
/// misclassification caused by concurrent restructuring at worst schedules
/// an unnecessary (harmless) point or is re-checked at operation time.
///
/// With `cache` non-null the per-generation geometry (circumsphere, EDT
/// lower bound, inside test, memoized closest surface point) is served from
/// / published to the generation-tagged side arena, so pops, retries, and
/// the R3 neighbour scan stop recomputing identical quantities. The parts
/// that read mutable state (`iso_grid.any_within`) are always evaluated
/// fresh, so caching never changes the classification result. `tid` only
/// picks a padded hit/miss counter slot.
Classification classify_cell(const DelaunayMesh& mesh, CellId c,
                             const IsosurfaceOracle& oracle,
                             const SpatialHashGrid& iso_grid,
                             const MeshingOptions& opt,
                             const lattice::LatticeFill* fill,
                             CellGeomCache* cache = nullptr, int tid = 0);

}  // namespace pi2m
