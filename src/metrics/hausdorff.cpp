#include "metrics/hausdorff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "support/parallel_for.hpp"

namespace pi2m {

double point_segment_distance(const Vec3& p, const Vec3& a, const Vec3& b) {
  const Vec3 ab = b - a;
  const double len2 = dot(ab, ab);
  if (len2 <= 0.0) return distance(p, a);  // degenerate segment
  const double t = std::clamp(dot(p - a, ab) / len2, 0.0, 1.0);
  return distance(p, a + t * ab);
}

double point_triangle_distance(const Vec3& p, const Vec3& a, const Vec3& b,
                               const Vec3& c) {
  // Ericson, "Real-Time Collision Detection", closest point on triangle.
  const Vec3 ab = b - a, ac = c - a, ap = p - a;

  // Zero-area triangles (collinear or coincident vertices) break the
  // region classification below two ways: a vanished barycentric
  // denominator makes the interior case divide 0/0, and a zero-length
  // edge can satisfy an edge-region test whose *other* edge carries the
  // true minimum (a == b classifies p into the a-b "edge" even when the
  // surviving segment a-c is closer). A degenerate triangle IS its
  // edges, so the minimum clamped segment distance is exact.
  const Vec3 nrm = cross(ab, ac);
  if (!(dot(nrm, nrm) > 0.0)) {
    return std::min({point_segment_distance(p, a, b),
                     point_segment_distance(p, b, c),
                     point_segment_distance(p, c, a)});
  }

  const double d1 = dot(ab, ap), d2 = dot(ac, ap);
  if (d1 <= 0.0 && d2 <= 0.0) return distance(p, a);

  const Vec3 bp = p - b;
  const double d3 = dot(ab, bp), d4 = dot(ac, bp);
  if (d3 >= 0.0 && d4 <= d3) return distance(p, b);

  // Edge regions delegate to the clamped segment distance: the textbook
  // t = d1/(d1-d3) style ratios divide by |edge|^2-derived quantities that
  // vanish for coincident vertices (0/0 -> NaN); the clamp is a no-op on
  // non-degenerate inputs and exact on degenerate ones.
  const double vc = d1 * d4 - d3 * d2;
  if (vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0) {
    return point_segment_distance(p, a, b);
  }

  const Vec3 cp = p - c;
  const double d5 = dot(ab, cp), d6 = dot(ac, cp);
  if (d6 >= 0.0 && d5 <= d6) return distance(p, c);

  const double vb = d5 * d2 - d1 * d6;
  if (vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0) {
    return point_segment_distance(p, a, c);
  }

  const double va = d3 * d6 - d5 * d4;
  if (va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0) {
    return point_segment_distance(p, b, c);
  }

  // Interior region. A zero-area triangle (collinear or coincident
  // vertices) can slip through every edge-region test with va+vb+vc == 0;
  // dividing then yields inf/NaN coordinates that poison the Hausdorff
  // max. Such a triangle IS its edges, so the edge distances are exact.
  const double sum = va + vb + vc;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return std::min({point_segment_distance(p, a, b),
                     point_segment_distance(p, b, c),
                     point_segment_distance(p, c, a)});
  }
  const double denom = 1.0 / sum;
  const double v = vb * denom, w = vc * denom;
  return distance(p, a + v * ab + w * ac);
}

namespace {

/// Uniform grid over boundary triangles for nearest-triangle queries.
class TriangleGrid {
 public:
  TriangleGrid(const TetMesh& mesh, double cell) : mesh_(mesh), cell_(cell) {
    for (const auto& p : mesh.points) bounds_.expand(p);
    for (std::size_t t = 0; t < mesh.boundary_tris.size(); ++t) {
      Aabb bb;
      for (int k = 0; k < 3; ++k) bb.expand(mesh_.points[mesh_.boundary_tris[t][k]]);
      for_cells(bb, [&](std::int64_t key) {
        cells_[key].push_back(static_cast<std::uint32_t>(t));
      });
    }
  }

  /// Nearest-triangle distance via expanding ring search.
  [[nodiscard]] double distance_to(const Vec3& p) const {
    double best = std::numeric_limits<double>::infinity();
    for (int ring = 0; ring < 64; ++ring) {
      visit_ring(p, ring, [&](std::uint32_t t) {
        const auto& f = mesh_.boundary_tris[t];
        best = std::min(best,
                        point_triangle_distance(p, mesh_.points[f[0]],
                                                mesh_.points[f[1]],
                                                mesh_.points[f[2]]));
      });
      // Once a candidate exists, one more ring guarantees correctness
      // (anything outside ring+1 is farther than ring*cell >= best).
      if (best < ring * cell_) break;
    }
    return best;
  }

 private:
  [[nodiscard]] std::int64_t key_of(int x, int y, int z) const {
    const std::int64_t off = 1 << 20;
    return ((static_cast<std::int64_t>(x) + off) << 42) |
           ((static_cast<std::int64_t>(y) + off) << 21) |
           (static_cast<std::int64_t>(z) + off);
  }
  [[nodiscard]] int coord(double v, double o) const {
    return static_cast<int>(std::floor((v - o) / cell_));
  }

  template <typename Fn>
  void for_cells(const Aabb& bb, Fn&& fn) {
    for (int z = coord(bb.lo.z, bounds_.lo.z); z <= coord(bb.hi.z, bounds_.lo.z); ++z)
      for (int y = coord(bb.lo.y, bounds_.lo.y); y <= coord(bb.hi.y, bounds_.lo.y); ++y)
        for (int x = coord(bb.lo.x, bounds_.lo.x); x <= coord(bb.hi.x, bounds_.lo.x); ++x)
          fn(key_of(x, y, z));
  }

  template <typename Fn>
  void visit_ring(const Vec3& p, int ring, Fn&& fn) const {
    const int cx = coord(p.x, bounds_.lo.x);
    const int cy = coord(p.y, bounds_.lo.y);
    const int cz = coord(p.z, bounds_.lo.z);
    for (int dz = -ring; dz <= ring; ++dz) {
      for (int dy = -ring; dy <= ring; ++dy) {
        for (int dx = -ring; dx <= ring; ++dx) {
          if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != ring)
            continue;  // shell only
          const auto it = cells_.find(key_of(cx + dx, cy + dy, cz + dz));
          if (it == cells_.end()) continue;
          for (std::uint32_t t : it->second) fn(t);
        }
      }
    }
  }

  const TetMesh& mesh_;
  double cell_;
  Aabb bounds_;
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> cells_;
};

/// max(0, f(0), ..., f(n-1)) on `threads` threads that take the indices
/// round-robin: the work per index clusters (surface voxels sit in the
/// middle slices), so contiguous blocks would leave one thread with most
/// of it. Max is exact and order-free, so the result does not depend on
/// the thread count.
template <typename F>
double parallel_max(std::size_t n, int threads, const F& f) {
  const std::size_t t = std::min<std::size_t>(std::max(1, threads),
                                              std::max<std::size_t>(n, 1));
  std::vector<double> maxima(t, 0.0);
  parallel_blocks(t, static_cast<int>(t), [&](std::size_t b, std::size_t e) {
    for (std::size_t w = b; w < e; ++w) {
      double m = 0.0;
      for (std::size_t i = w; i < n; i += t) m = std::max(m, f(i));
      maxima[w] = m;
    }
  });
  return *std::max_element(maxima.begin(), maxima.end());
}

}  // namespace

HausdorffResult hausdorffdistance_impl(const TetMesh& mesh,
                                       const IsosurfaceOracle& oracle,
                                       int n) {
  HausdorffResult out;
  if (mesh.boundary_tris.empty()) return out;
  const int threads = oracle.threads();

  // mesh -> surface: barycentric samples of each boundary triangle.
  out.mesh_to_surface =
      parallel_max(mesh.boundary_tris.size(), threads, [&](std::size_t t) {
        const auto& f = mesh.boundary_tris[t];
        const Vec3& a = mesh.points[f[0]];
        const Vec3& b = mesh.points[f[1]];
        const Vec3& c = mesh.points[f[2]];
        double d = 0.0;
        for (int i = 0; i <= n; ++i) {
          for (int j = 0; j <= n - i; ++j) {
            const double u = static_cast<double>(i) / n;
            const double v = static_cast<double>(j) / n;
            const Vec3 p = a + u * (b - a) + v * (c - a);
            const auto q = oracle.closest_surface_point(p);
            if (q) d = std::max(d, distance(p, *q));
          }
        }
        return d;
      });

  // surface -> mesh: every surface voxel, refined onto the interface; one
  // z slice per index.
  const LabeledImage3D& img = oracle.image();
  const TriangleGrid grid(mesh, 2.0 * img.min_spacing());
  out.surface_to_mesh = parallel_max(
      static_cast<std::size_t>(img.nz()), threads,
      [&](std::size_t slice) {
        const int z = static_cast<int>(slice);
        double d = 0.0;
        for (int y = 0; y < img.ny(); ++y) {
          for (int x = 0; x < img.nx(); ++x) {
            if (!img.is_surface_voxel({x, y, z})) continue;
            const auto q =
                oracle.closest_surface_point(img.voxel_center({x, y, z}));
            if (!q) continue;
            d = std::max(d, grid.distance_to(*q));
          }
        }
        return d;
      });
  return out;
}

HausdorffResult hausdorff_distance(const TetMesh& mesh,
                                   const IsosurfaceOracle& oracle,
                                   int samples_per_edge) {
  return hausdorffdistance_impl(mesh, oracle, std::max(1, samples_per_edge));
}

}  // namespace pi2m
