#include "metrics/quality.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/tetra.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {

QualityReport evaluate_quality(const TetMesh& mesh, int threads) {
  const std::size_t n = mesh.tets.size();
  const auto blocks =
      static_cast<std::size_t>(threads > 0 ? threads : post_threads(n));

  // Extrema and histogram counts are exact, so each block keeps its own and
  // the blocks merge in order below. The two sums are not associative: the
  // blocks store each tet's summand and one serial pass adds them up in
  // index order, so the report is bitwise the serial loop's at any thread
  // count.
  std::vector<double> rho(n), vol(n);
  std::vector<QualityReport> part(blocks);
  parallel_indexed_blocks(n, blocks, [&](std::size_t k, std::size_t b,
                                         std::size_t e) {
    QualityReport& r = part[k];
    for (std::size_t i = b; i < e; ++i) {
      const auto& t = mesh.tets[i];
      const Vec3& pa = mesh.points[t[0]];
      const Vec3& pb = mesh.points[t[1]];
      const Vec3& pc = mesh.points[t[2]];
      const Vec3& pd = mesh.points[t[3]];

      rho[i] = radius_edge_ratio(pa, pb, pc, pd);
      if (rho[i] < 1e299) {
        r.max_radius_edge = std::max(r.max_radius_edge, rho[i]);
        const auto bin = static_cast<std::size_t>(
            std::min(16.0, std::floor(rho[i] / 0.25)));
        ++r.radius_edge_histogram[bin];
      }

      for (const double ang : dihedral_angles(pa, pb, pc, pd)) {
        r.min_dihedral_deg = std::min(r.min_dihedral_deg, ang);
        r.max_dihedral_deg = std::max(r.max_dihedral_deg, ang);
        const auto bin = static_cast<std::size_t>(
            std::clamp(std::floor(ang / 10.0), 0.0, 17.0));
        ++r.dihedral_histogram[bin];
      }

      vol[i] = std::fabs(signed_volume(pa, pb, pc, pd));
      r.min_volume = std::min(r.min_volume, vol[i]);
    }
  });

  QualityReport r;
  r.num_tets = n;
  r.num_boundary_tris = mesh.boundary_tris.size();
  for (const QualityReport& p : part) {
    r.max_radius_edge = std::max(r.max_radius_edge, p.max_radius_edge);
    r.min_dihedral_deg = std::min(r.min_dihedral_deg, p.min_dihedral_deg);
    r.max_dihedral_deg = std::max(r.max_dihedral_deg, p.max_dihedral_deg);
    r.min_volume = std::min(r.min_volume, p.min_volume);
    for (std::size_t j = 0; j < r.dihedral_histogram.size(); ++j) {
      r.dihedral_histogram[j] += p.dihedral_histogram[j];
    }
    for (std::size_t j = 0; j < r.radius_edge_histogram.size(); ++j) {
      r.radius_edge_histogram[j] += p.radius_edge_histogram[j];
    }
  }
  double rho_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rho[i] < 1e299) rho_sum += rho[i];
    r.total_volume += vol[i];
  }
  if (n > 0) rho_sum /= static_cast<double>(n);
  r.mean_radius_edge = rho_sum;

  for (const auto& f : mesh.boundary_tris) {
    r.min_boundary_planar_deg = std::min(
        r.min_boundary_planar_deg,
        min_triangle_angle(mesh.points[f[0]], mesh.points[f[1]],
                           mesh.points[f[2]]));
  }
  if (n == 0) r.min_volume = 0.0;
  return r;
}

}  // namespace pi2m
