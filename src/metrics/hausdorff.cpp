#include "metrics/hausdorff.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// Dense uniform grid over the boundary triangles, in CSR form: cell c
/// lists the triangles whose bounding box overlaps it, in triangle order.
/// The grid spans the boundary's bounding box. Its cells are at least
/// `min_cell` wide and grow until there are at most 2 per triangle (plus a
/// few), so a small mesh in a large image gets a small table.
class TriangleGrid {
 public:
  TriangleGrid(const TetMesh& mesh, double min_cell, int threads)
      : mesh_(mesh) {
    const std::size_t ntris = mesh.boundary_tris.size();
    for (const auto& f : mesh.boundary_tris) {
      for (const std::uint32_t v : f) bounds_.expand(mesh.points[v]);
    }
    const Vec3 ext = bounds_.extent();
    const double budget = 2.0 * static_cast<double>(ntris) + 64.0;
    cell_ = std::max(min_cell, std::cbrt(ext.x * ext.y * ext.z / budget));
    if (!(cell_ > 0.0) || !std::isfinite(norm2(ext))) {
      // Degenerate input: one infinite cell holds every triangle.
      cell_ = std::numeric_limits<double>::infinity();
      n_ = {1, 1, 1};
    } else {
      for (;;) {
        for (int a = 0; a < 3; ++a) {
          n_[a] = cell_of(bounds_.hi[a], a, 0, kMaxCells) + 1;
        }
        if (static_cast<double>(n_[0]) * n_[1] * n_[2] <= budget) break;
        cell_ *= 1.25;
      }
    }
    const auto cells = static_cast<std::size_t>(n_[0]) * n_[1] * n_[2];
    grid_ = bucket_scatter<std::uint32_t>(
        ntris, cells, static_cast<std::size_t>(std::max(1, threads)),
        [this](std::size_t t, auto&& out) {
          std::array<int, 3> lo{}, hi{};
          cell_range(mesh_.boundary_tris[t], lo, hi);
          for (int z = lo[2]; z <= hi[2]; ++z)
            for (int y = lo[1]; y <= hi[1]; ++y)
              for (int x = lo[0]; x <= hi[0]; ++x)
                out(index(x, y, z), static_cast<std::uint32_t>(t));
        });
  }

  /// Distance from p to the nearest boundary triangle by an expanding ring
  /// search, or, as soon as a triangle lies within `enough` of p, that
  /// triangle's distance. `tests` counts the point-triangle evaluations.
  [[nodiscard]] double distance_to(const Vec3& p, double enough,
                                   std::uint64_t& tests) const {
    // p's cell, which may lie outside the grid (clamped so that no ring
    // index below overflows).
    std::array<int, 3> c{};
    int first = 0, last = 0;  // the rings that meet the grid
    for (int a = 0; a < 3; ++a) {
      c[a] = cell_of(p[a], a, -kMaxCells, n_[a] - 1 + kMaxCells);
      first = std::max({first, -c[a], c[a] - (n_[a] - 1)});
      last = std::max({last, c[a], n_[a] - 1 - c[a]});
    }
    double best = std::numeric_limits<double>::infinity();
    const auto visit = [&](std::size_t cell_lo, std::size_t cell_hi) {
      for (std::size_t i = grid_.start[cell_lo]; i < grid_.start[cell_hi];
           ++i) {
        const auto& f = mesh_.boundary_tris[grid_.items[i]];
        best = std::min(best,
                        point_triangle_distance(p, mesh_.points[f[0]],
                                                mesh_.points[f[1]],
                                                mesh_.points[f[2]]));
        ++tests;
        if (best <= enough) return true;
      }
      return false;
    };
    for (int ring = first; ring <= last; ++ring) {
      // The shell of cells at Chebyshev distance `ring` from c, clipped to
      // the grid: whole x rows on its two z faces and two y faces, and the
      // two end cells of every other row.
      const int x0 = std::max(0, c[0] - ring);
      const int x1 = std::min(n_[0] - 1, c[0] + ring);
      const int y0 = std::max(0, c[1] - ring);
      const int y1 = std::min(n_[1] - 1, c[1] + ring);
      const int z0 = std::max(0, c[2] - ring);
      const int z1 = std::min(n_[2] - 1, c[2] + ring);
      for (int z = z0; z <= z1; ++z) {
        const bool z_face = std::abs(z - c[2]) == ring;
        for (int y = y0; y <= y1; ++y) {
          if (z_face || std::abs(y - c[1]) == ring) {
            if (x0 <= x1 && visit(index(x0, y, z), index(x1, y, z) + 1)) {
              return best;
            }
            continue;
          }
          for (const int x : {c[0] - ring, c[0] + ring}) {
            const std::size_t i = index(x, y, z);
            if (x >= 0 && x < n_[0] && visit(i, i + 1)) return best;
          }
        }
      }
      // p lies in cell c, so a triangle in no cell of rings <= `ring` is
      // farther than ring * cell: once best is below that it is exact.
      if (best < ring * cell_) break;
    }
    return best;
  }

 private:
  [[nodiscard]] std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * n_[1] + y) * n_[0] + x;
  }

  /// The cells the bounding box of triangle f overlaps.
  void cell_range(const std::array<std::uint32_t, 3>& f,
                  std::array<int, 3>& lo, std::array<int, 3>& hi) const {
    for (int a = 0; a < 3; ++a) {
      double mn = mesh_.points[f[0]][a], mx = mn;
      for (int k = 1; k < 3; ++k) {
        mn = std::min(mn, mesh_.points[f[k]][a]);
        mx = std::max(mx, mesh_.points[f[k]][a]);
      }
      lo[a] = cell_of(mn, a, 0, n_[a] - 1);
      hi[a] = cell_of(mx, a, 0, n_[a] - 1);
    }
  }

  /// The cell coordinate of v along `axis`, clamped to [lo, hi] (NaN maps
  /// to hi).
  [[nodiscard]] int cell_of(double v, int axis, int lo, int hi) const {
    const double c = std::floor((v - bounds_.lo[axis]) / cell_);
    if (c < lo) return lo;
    return c < hi ? static_cast<int>(c) : hi;
  }

  static constexpr int kMaxCells = 1 << 28;

  const TetMesh& mesh_;
  Aabb bounds_;
  double cell_ = 0.0;
  std::array<int, 3> n_{};
  Buckets<std::uint32_t> grid_;
};

/// max(0, f(0), ..., f(n-1)) on `threads` threads that take the indices
/// round-robin: the work per index clusters (surface voxels sit in the
/// middle slices), so contiguous blocks would leave one thread with most
/// of it. f(i, m, tests) gets its thread's running maximum m and may return
/// any value <= m instead of f(i) when f(i) <= m, since such a value cannot
/// raise the maximum; it adds its work count to `tests`. Max is exact and
/// order-free, so the result does not depend on the thread count (the work
/// count does).
template <typename F>
double parallel_max(std::size_t n, int threads, std::uint64_t& tests,
                    const F& f) {
  const std::size_t t = std::min<std::size_t>(std::max(1, threads),
                                              std::max<std::size_t>(n, 1));
  std::vector<double> maxima(t, 0.0);
  std::vector<std::uint64_t> counts(t, 0);
  parallel_blocks(t, static_cast<int>(t), [&](std::size_t b, std::size_t e) {
    for (std::size_t w = b; w < e; ++w) {
      double m = 0.0;
      std::uint64_t c = 0;
      for (std::size_t i = w; i < n; i += t) m = std::max(m, f(i, m, c));
      maxima[w] = m;
      counts[w] = c;
    }
  });
  for (const std::uint64_t c : counts) tests += c;
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
  std::uint64_t uncounted = 0;
  out.mesh_to_surface = parallel_max(
      mesh.boundary_tris.size(), threads, uncounted,
      [&](std::size_t t, double, std::uint64_t&) {
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
  // z slice per index. A point with a triangle within the thread's running
  // maximum is dropped at that triangle (Taha & Hanbury, TPAMI 2015).
  const LabeledImage3D& img = oracle.image();
  const TriangleGrid grid(mesh, 2.0 * img.min_spacing(), threads);
  out.surface_to_mesh = parallel_max(
      static_cast<std::size_t>(img.nz()), threads, out.triangle_tests,
      [&](std::size_t slice, double m, std::uint64_t& tests) {
        const int z = static_cast<int>(slice);
        double d = m;
        for (int y = 0; y < img.ny(); ++y) {
          for (int x = 0; x < img.nx(); ++x) {
            if (!img.is_surface_voxel({x, y, z})) continue;
            const auto q =
                oracle.closest_surface_point(img.voxel_center({x, y, z}));
            if (!q) continue;
            d = std::max(d, grid.distance_to(*q, d, tests));
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
