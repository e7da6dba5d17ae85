// Isosurface oracle: all geometric queries the refinement rules make
// against the segmented image (paper §3).
//
// The isosurface ∂O is the set of points where the (nearest-neighbour
// extended) label field changes value — the outer object boundary plus all
// internal tissue-tissue interfaces. Queries combine the O(1) feature
// transform with short ray walks + bisection refinement ("we traverse the
// ray pq on small intervals and compute p̂ ∈ ∂O by interpolating the
// positions of different labels", paper §3).
#pragma once

#include <optional>

#include "imaging/edt.hpp"
#include "imaging/image3d.hpp"

namespace pi2m {

class IsosurfaceOracle {
 public:
  /// Builds the oracle: computes the feature transform with `threads`
  /// threads (the paper's only preprocessing step besides the virtual box).
  IsosurfaceOracle(const LabeledImage3D& img, int threads = 1);

  [[nodiscard]] const LabeledImage3D& image() const { return *img_; }
  [[nodiscard]] const FeatureTransform& edt() const { return ft_; }

  /// The thread budget the oracle was built with (at least 1). Queries are
  /// const and thread-safe; post-processing that samples the oracle
  /// (Hausdorff) runs on this many threads.
  [[nodiscard]] int threads() const { return threads_; }

  /// Nearest-neighbour label at a world point (background outside image).
  [[nodiscard]] Label label_at(const Vec3& p) const { return img_->label_at(p); }

  /// True when p is inside the object O (any non-zero label).
  [[nodiscard]] bool inside(const Vec3& p) const { return label_at(p) != 0; }

  /// The point p̂ of ∂O closest to p (paper notation): EDT lookup to find the
  /// nearest surface voxel q, then a walk along ray p→q with bisection to the
  /// exact label-change position. Empty when the image has no surface.
  [[nodiscard]] std::optional<Vec3> closest_surface_point(const Vec3& p) const;

  /// First intersection of segment [a,b] with ∂O (label change along the
  /// segment), refined by bisection. Empty when the labels never change.
  /// Used by rule R3 on Voronoi edges V(f).
  [[nodiscard]] std::optional<Vec3> segment_surface_intersection(
      const Vec3& a, const Vec3& b) const;

  /// Reference implementations of the two walks above: fixed-lattice scalar
  /// sampling at `step()` intervals (the paper's description, verbatim).
  /// Not used by meshing: kept as the oracle the DDA walks are tested
  /// against, and as a micro-benchmark baseline.
  [[nodiscard]] std::optional<Vec3> closest_surface_point_reference(
      const Vec3& p) const;
  [[nodiscard]] std::optional<Vec3> segment_surface_intersection_reference(
      const Vec3& a, const Vec3& b) const;

  /// True when the ball of center c and radius r intersects ∂O; implemented
  /// as |c - closest_surface_point(c)| <= r. Used by rules R1/R2.
  [[nodiscard]] bool ball_intersects_surface(const Vec3& c, double r) const;

  /// Sampling step for ray walks (a fraction of the minimum voxel spacing).
  [[nodiscard]] double step() const { return step_; }

  /// O(1) lower bound on the distance from p to ∂O: the EDT distance to the
  /// nearest surface-voxel *center* minus one voxel diagonal (the interface
  /// passes within a diagonal of that center). Never overestimates the true
  /// distance by construction; used as a conservative prefilter so rule
  /// classification skips the expensive ray walks for the (vast majority
  /// of) elements far from the surface.
  [[nodiscard]] double surface_distance_lower_bound(const Vec3& p) const {
    const double d = ft_.surface_distance_estimate(p);
    return d - voxel_diag_;
  }

  /// Conservative O(1) test: false only when the ball around c of radius r
  /// certainly does not intersect ∂O.
  [[nodiscard]] bool ball_may_intersect_surface(const Vec3& c, double r) const {
    return surface_distance_lower_bound(c) <= r;
  }

  /// Conservative O(1) test: false only when segment [a,b] certainly does
  /// not cross ∂O (both endpoints farther from the surface than the reach
  /// of the segment: d(a)+d(b) > |ab|).
  [[nodiscard]] bool segment_may_intersect_surface(const Vec3& a,
                                                   const Vec3& b) const {
    return surface_distance_lower_bound(a) + surface_distance_lower_bound(b) <=
           distance(a, b);
  }

 private:
  /// Refines a bracketed label change between s (label ls) and t to a point
  /// on the interface, by bisection on the label field.
  [[nodiscard]] Vec3 bisect(Vec3 s, Label ls, Vec3 t) const;

  /// Given (approximately) a surface voxel center, bisects toward the axis
  /// neighbour of differing label to land on the interface.
  [[nodiscard]] Vec3 refine_around_voxel(const Vec3& q) const;

  /// First label transition along segment [a,b], located by an integer
  /// Amanatides–Woo voxel traversal of the label grid and refined by
  /// bisection. The workhorse behind both public walks.
  [[nodiscard]] std::optional<Vec3> first_transition_dda(const Vec3& a,
                                                         const Vec3& b) const;

  const LabeledImage3D* img_;
  int threads_;
  FeatureTransform ft_;
  double step_;
  double voxel_diag_;
  Vec3 inv_sp_;
};

}  // namespace pi2m
