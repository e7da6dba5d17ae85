#include "core/smoothing.hpp"

#include <algorithm>
#include <cmath>

#include "geometry/tetra.hpp"
#include "support/parallel_for.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

/// Step fraction toward the neighbours' centroid.
constexpr double kRelaxation = 0.5;

struct VertexTopology {
  std::vector<std::vector<std::uint32_t>> incident_tets;
  std::vector<std::vector<std::uint32_t>> neighbours;          // all
  std::vector<std::vector<std::uint32_t>> surface_neighbours;  // via boundary tris
  std::vector<char> on_boundary;
};

VertexTopology build_topology(const TetMesh& mesh) {
  VertexTopology topo;
  const std::size_t n = mesh.points.size();
  topo.incident_tets.resize(n);
  topo.neighbours.resize(n);
  topo.surface_neighbours.resize(n);
  topo.on_boundary.assign(n, 0);

  for (std::uint32_t t = 0; t < mesh.tets.size(); ++t) {
    for (const std::uint32_t v : mesh.tets[t]) {
      topo.incident_tets[v].push_back(t);
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) topo.neighbours[mesh.tets[t][i]].push_back(mesh.tets[t][j]);
      }
    }
  }
  for (const auto& f : mesh.boundary_tris) {
    for (int i = 0; i < 3; ++i) {
      topo.on_boundary[f[i]] = 1;
      topo.surface_neighbours[f[i]].push_back(f[(i + 1) % 3]);
      topo.surface_neighbours[f[i]].push_back(f[(i + 2) % 3]);
    }
  }
  for (auto& v : topo.neighbours) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : topo.surface_neighbours) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return topo;
}

/// Worst (minimum) dihedral angle, minimum signed volume, and worst
/// (maximum) radius-edge ratio over the tets incident to vertex v,
/// evaluated with v at position `pos`.
void local_quality(const TetMesh& mesh, const VertexTopology& topo,
                   std::uint32_t v, const Vec3& pos, double* min_dihedral,
                   double* min_volume, double* max_rho) {
  *min_dihedral = 180.0;
  *min_volume = 1e300;
  *max_rho = 0.0;
  for (const std::uint32_t t : topo.incident_tets[v]) {
    Vec3 p[4];
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t w = mesh.tets[t][k];
      p[k] = (w == v) ? pos : mesh.points[w];
    }
    // |signed volume| with orientation check: flipping is an inversion.
    const double vol0 = signed_volume(mesh.points[mesh.tets[t][0]],
                                      mesh.points[mesh.tets[t][1]],
                                      mesh.points[mesh.tets[t][2]],
                                      mesh.points[mesh.tets[t][3]]);
    double vol = signed_volume(p[0], p[1], p[2], p[3]);
    if (vol0 < 0) vol = -vol;  // normalize to the tet's original handedness
    *min_volume = std::min(*min_volume, vol);
    *max_rho = std::max(*max_rho, radius_edge_ratio(p[0], p[1], p[2], p[3]));
    const auto angles = dihedral_angles(p[0], p[1], p[2], p[3]);
    for (const double a : angles) *min_dihedral = std::min(*min_dihedral, a);
  }
}

double global_min_dihedral(const TetMesh& mesh) {
  double m = 180.0;
  for (const auto& t : mesh.tets) {
    const auto angles =
        dihedral_angles(mesh.points[t[0]], mesh.points[t[1]],
                        mesh.points[t[2]], mesh.points[t[3]]);
    for (const double a : angles) m = std::min(m, a);
  }
  return m;
}

}  // namespace

SmoothingReport smooth_mesh(TetMesh& mesh, const IsosurfaceOracle& oracle,
                            const SmoothingOptions& opt) {
  SmoothingReport rep;
  if (mesh.tets.empty()) return rep;
  PI2M_TRACE_SPAN("phase.smooth", "phase");
  const VertexTopology topo = build_topology(mesh);
  rep.min_dihedral_before = global_min_dihedral(mesh);

  std::atomic<std::size_t> accepted{0}, rejected{0};
  for (int iter = 0; iter < opt.iterations; ++iter) {
    // Stage proposals in parallel (reads only), then apply sequentially
    // with a final acceptance re-check against the already-applied moves —
    // a simple two-phase scheme that needs no coloring.
    const std::size_t n = mesh.points.size();
    std::vector<Vec3> proposal(n);
    std::vector<char> has_proposal(n, 0);

    parallel_blocks(n, opt.threads, [&](std::size_t b, std::size_t e) {
      for (std::size_t v = b; v < e; ++v) {
        const bool boundary = topo.on_boundary[v] != 0;
        if (boundary && !opt.smooth_surface) continue;
        const auto& nbrs =
            boundary ? topo.surface_neighbours[v] : topo.neighbours[v];
        if (nbrs.size() < 3 || topo.incident_tets[v].empty()) continue;

        Vec3 centroid{0, 0, 0};
        for (const std::uint32_t w : nbrs) centroid += mesh.points[w];
        centroid = centroid / static_cast<double>(nbrs.size());
        Vec3 target =
            mesh.points[v] + kRelaxation * (centroid - mesh.points[v]);
        if (boundary) {
          // Keep the fidelity guarantee: boundary vertices stay on ∂O.
          const auto q = oracle.closest_surface_point(target);
          if (!q) continue;
          target = *q;
        }
        proposal[v] = target;
        has_proposal[v] = 1;
      }
    });

    for (std::size_t v = 0; v < n; ++v) {
      if (!has_proposal[v]) continue;
      double dih_before, vol_before, rho_before;
      double dih_after, vol_after, rho_after;
      local_quality(mesh, topo, static_cast<std::uint32_t>(v), mesh.points[v],
                    &dih_before, &vol_before, &rho_before);
      local_quality(mesh, topo, static_cast<std::uint32_t>(v), proposal[v],
                    &dih_after, &vol_after, &rho_after);
      // Accept only when nothing inverts, the locally-worst dihedral does
      // not get worse, and the radius-edge bound is not traded away.
      if (vol_after > 0.0 && dih_after >= dih_before &&
          rho_after <= std::max(rho_before, 2.0)) {
        mesh.points[v] = proposal[v];
        accepted.fetch_add(1, std::memory_order_relaxed);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  rep.moves_accepted = accepted.load();
  rep.moves_rejected = rejected.load();
  rep.min_dihedral_after = global_min_dihedral(mesh);
  return rep;
}

}  // namespace pi2m
