// Mesh quality statistics: the metrics of the paper's Table 6 —
// radius-edge ratio, dihedral angles, smallest boundary planar angle —
// plus distribution summaries for the benches.
#pragma once

#include <array>
#include <cstddef>

#include "core/pi2m.hpp"

namespace pi2m {

struct QualityReport {
  std::size_t num_tets = 0;
  std::size_t num_boundary_tris = 0;

  double max_radius_edge = 0.0;
  double mean_radius_edge = 0.0;

  double min_dihedral_deg = 180.0;
  double max_dihedral_deg = 0.0;

  double min_boundary_planar_deg = 180.0;

  double min_volume = 1e300;
  double total_volume = 0.0;

  /// Histogram of dihedral angles in 10-degree bins [0,180).
  std::array<std::size_t, 18> dihedral_histogram{};
  /// Histogram of radius-edge ratios in 0.25 bins [0, 4), last bin = >=4.
  std::array<std::size_t, 17> radius_edge_histogram{};
};

/// Evaluates all metrics over an extracted mesh on `threads` threads
/// (0 = post_threads(tets)). The report is bitwise the same at any thread
/// count.
QualityReport evaluate_quality(const TetMesh& mesh, int threads = 0);

}  // namespace pi2m
