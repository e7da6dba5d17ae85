// Two-sided (symmetric) Hausdorff distance between the extracted mesh
// boundary and the image isosurface — the paper's fidelity metric
// (Table 6). Theorem 1 predicts it shrinks as O(δ²) with the sample
// spacing.
//
// Both directions are estimated by dense sampling:
//  * mesh→surface: sample points on every boundary triangle, measure the
//    oracle distance to ∂O;
//  * surface→mesh: refine every surface voxel to an interface point and
//    measure the exact distance to the nearest boundary triangle. The
//    triangles sit in a dense grid with O(boundary triangles) cells; a
//    ring search over it, with no ring cap, finds the nearest one, and a
//    point is dropped as soon as some triangle lies within its thread's
//    running maximum, since it cannot raise the maximum (Taha & Hanbury,
//    TPAMI 2015). Both distances are therefore exactly what testing every
//    point against every triangle gives.
#pragma once

#include <cstdint>

#include "core/pi2m.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m {

/// Exact distance from point p to segment [a,b] (degenerate segments fall
/// back to the point distance).
double point_segment_distance(const Vec3& p, const Vec3& a, const Vec3& b);

/// Exact distance from point p to triangle (a,b,c) (Ericson, RTCD §5.1.5).
/// Degenerate (zero-area: collinear or coincident) triangles fall back to
/// the minimum point-segment distance over the edges instead of dividing by
/// a vanished barycentric denominator.
double point_triangle_distance(const Vec3& p, const Vec3& a, const Vec3& b,
                               const Vec3& c);

struct HausdorffResult {
  double mesh_to_surface = 0.0;
  double surface_to_mesh = 0.0;
  /// Point-triangle distance evaluations of the surface->mesh pass. Exact
  /// and repeatable at a fixed thread count, but it depends on the count:
  /// each thread drops points against its own running maximum.
  std::uint64_t triangle_tests = 0;
  [[nodiscard]] double symmetric() const {
    return mesh_to_surface > surface_to_mesh ? mesh_to_surface
                                             : surface_to_mesh;
  }
};

/// `samples_per_edge` controls the triangle sampling density (the triangle
/// gets ~n(n+1)/2 samples). Both directions sample on `oracle.threads()`
/// threads; the result is bitwise the same at any thread count.
HausdorffResult hausdorff_distance(const TetMesh& mesh,
                                   const IsosurfaceOracle& oracle,
                                   int samples_per_edge = 3);

}  // namespace pi2m
