#include "baselines/reference_mesher.hpp"

#include <cmath>
#include <map>
#include <queue>

#include "core/spatial_grid.hpp"
#include "delaunay/local_dt.hpp"
#include "delaunay/mesh.hpp"  // kFaceOf, VertexKind
#include "geometry/tetra.hpp"
#include "runtime/stats.hpp"  // now_sec

namespace pi2m::baselines {
namespace {

/// The image mesher rejects a circumcenter closer than this times δ to a
/// surface sample (and splits the encroached surface instead). Without
/// removals this guard is what guarantees termination; smaller values
/// trade termination margin for near-surface element quality.
constexpr double kProtectFactor = 0.1;

/// The PLC mesher rejects a circumcenter closer than this times δ to a
/// boundary vertex (boundary protection; keeps termination without
/// boundary re-recovery).
constexpr double kPlcProtectFactor = 0.9;

/// `opt`, once its δ is checked as the Refiner checks it.
const MeshingOptions& checked(const MeshingOptions& opt) {
  PI2M_CHECK(opt.delta > 0.0, "MeshingOptions::delta must be positive");
  return opt;
}

/// Worst-first queue entry (largest circumradius first, CGAL-style).
struct QueueEntry {
  double key;
  int tet;
  bool operator<(const QueueEntry& o) const { return key < o.key; }
};

/// The sequential scaffold both stand-ins share; a rule set supplies
/// refine_tet.
class ReferenceMesher {
 public:
  ReferenceMesher(const IsosurfaceOracle& oracle, const MeshingOptions& opt)
      : opt_(checked(opt)),
        oracle_(oracle),
        box_(oracle.image().bounds().inflated(
            0.15 * norm(oracle.image().bounds().extent()))),
        dt_(box_),
        surface_grid_(box_, opt.delta) {
    kinds_.assign(4, VertexKind::Box);  // the auxiliary corners
  }

  /// Inserts the box corners (they play the virtual-box role) and the
  /// surface-kind points of `boundary`, then refines worst-first until the
  /// queue drains or op_budget insertions were made.
  ReferenceResult run(const TetMesh& boundary) {
    ReferenceResult res;
    const double t0 = now_sec();
    for (int b = 0; b < 8; ++b) {
      const Vec3 p{(b & 1) ? box_.hi.x : box_.lo.x,
                   (b & 2) ? box_.hi.y : box_.lo.y,
                   (b & 4) ? box_.hi.z : box_.lo.z};
      add_vertex(p, VertexKind::Box);
    }
    for (std::size_t i = 0; i < boundary.points.size(); ++i) {
      if (!on_surface(boundary.point_kinds[i])) continue;
      add_vertex(boundary.points[i], boundary.point_kinds[i]);
    }
    for (std::size_t t = 0; t < dt_.tets().size(); ++t) {
      schedule(static_cast<int>(t));
    }

    while (!queue_.empty() && insertions_ < opt_.op_budget) {
      const QueueEntry e = queue_.top();
      queue_.pop();
      if (!alive(e.tet)) continue;
      // R1/R3 insert points away from the tet's circumsphere; when the tet
      // survives an *actual* insertion, re-examine it for the remaining
      // rules. (A rejected insertion must not re-schedule, or the queue
      // would never drain.)
      if (refine_tet(e.tet) && alive(e.tet)) schedule(e.tet);
    }
    res.completed = queue_.empty();
    res.insertions = insertions_;
    res.wall_sec = now_sec() - t0;
    res.mesh = extract();
    return res;
  }

 protected:
  /// Applies the rule set to alive tet t; returns whether a point was
  /// inserted.
  virtual bool refine_tet(int t) = 0;

  int add_vertex(const Vec3& p, VertexKind kind) {
    const int idx = dt_.add_point(p);
    if (idx < 0) return -1;
    ++insertions_;
    kinds_.resize(static_cast<std::size_t>(idx) + 1, VertexKind::Box);
    kinds_[static_cast<std::size_t>(idx)] = kind;
    if (on_surface(kind)) {
      surface_grid_.insert(p, static_cast<VertexId>(idx));
    }
    for (const int t : dt_.last_created()) schedule(t);
    return idx;
  }

  [[nodiscard]] const LocalDelaunay::Tet& tet(int t) const {
    return dt_.tets()[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] bool has_aux(int t) const {
    for (const int v : tet(t).v) {
      if (LocalDelaunay::is_aux(v)) return true;
    }
    return false;
  }

  [[nodiscard]] Circumsphere circum(int t) const {
    const auto& tt = tet(t);
    return circumsphere(dt_.point(tt.v[0]), dt_.point(tt.v[1]),
                        dt_.point(tt.v[2]), dt_.point(tt.v[3]));
  }

  /// R4/R5: the tet's radius-edge ratio exceeds ρ̄, or its circumradius
  /// exceeds the sizing field at the circumcenter.
  [[nodiscard]] bool poor_volume_tet(int t, const Circumsphere& cs) const {
    const auto& tt = tet(t);
    const double r = std::sqrt(cs.radius2);
    const double shortest =
        shortest_edge(dt_.point(tt.v[0]), dt_.point(tt.v[1]),
                      dt_.point(tt.v[2]), dt_.point(tt.v[3]));
    return (shortest > 0.0 && r / shortest > opt_.radius_edge_bound) ||
           (opt_.size_function && r > opt_.size_function(cs.center));
  }

  const MeshingOptions& opt_;
  const IsosurfaceOracle& oracle_;
  Aabb box_;
  LocalDelaunay dt_;
  /// The surface sample: every inserted vertex of surface kind.
  SpatialHashGrid surface_grid_;
  std::vector<VertexKind> kinds_;

 private:
  [[nodiscard]] bool alive(int t) const { return tet(t).alive; }

  void schedule(int t) {
    if (has_aux(t)) return;
    const Circumsphere cs = circum(t);
    if (!cs.valid) return;
    queue_.push({cs.radius2, t});
  }

  [[nodiscard]] TetMesh extract() const {
    TetMesh out;
    std::map<int, std::uint32_t> remap;
    auto map_vertex = [&](int v) {
      auto it = remap.find(v);
      if (it != remap.end()) return it->second;
      const auto idx = static_cast<std::uint32_t>(out.points.size());
      out.points.push_back(dt_.point(v));
      out.point_kinds.push_back(kinds_[static_cast<std::size_t>(v)]);
      remap.emplace(v, idx);
      return idx;
    };
    // Label per tet index (0 = dropped).
    std::vector<Label> keep(dt_.tets().size(), 0);
    for (int t = 0; t < static_cast<int>(dt_.tets().size()); ++t) {
      if (!alive(t) || has_aux(t)) continue;
      const Circumsphere cs = circum(t);
      if (!cs.valid) continue;
      keep[static_cast<std::size_t>(t)] = oracle_.label_at(cs.center);
    }
    for (std::size_t t = 0; t < dt_.tets().size(); ++t) {
      if (keep[t] == 0) continue;
      const auto& tt = dt_.tets()[t];
      out.tets.push_back({map_vertex(tt.v[0]), map_vertex(tt.v[1]),
                          map_vertex(tt.v[2]), map_vertex(tt.v[3])});
      out.tet_labels.push_back(keep[t]);
      for (int i = 0; i < 4; ++i) {
        const int nb = tt.n[i];
        const Label other =
            nb < 0 ? Label{0} : keep[static_cast<std::size_t>(nb)];
        if (other >= keep[t]) continue;
        out.boundary_tris.push_back({map_vertex(tt.v[kFaceOf[i][0]]),
                                     map_vertex(tt.v[kFaceOf[i][1]]),
                                     map_vertex(tt.v[kFaceOf[i][2]])});
      }
    }
    return out;
  }

  std::priority_queue<QueueEntry> queue_;
  std::uint64_t insertions_ = 0;
};

/// The CGAL stand-in's rules: R1-R5 in paper order, no removals.
class ImageMesher final : public ReferenceMesher {
 public:
  using ReferenceMesher::ReferenceMesher;

 private:
  bool refine_tet(int t) override {
    const auto& tt = tet(t);
    const Circumsphere cs = circum(t);
    if (!cs.valid) return false;
    const double r = std::sqrt(cs.radius2);

    if (oracle_.ball_may_intersect_surface(cs.center, r)) {
      const auto zhat = oracle_.closest_surface_point(cs.center);
      if (zhat && distance(cs.center, *zhat) <= r) {
        if (!surface_grid_.any_within(*zhat, opt_.delta)) {
          return add_vertex(*zhat, VertexKind::Isosurface) >= 0;
        }
        if (r > 2.0 * opt_.delta) {
          return insert_circumcenter(cs.center);
        }
      }
    }

    // R3: facet surface-centers.
    for (int i = 0; i < 4; ++i) {
      const int nb = tt.n[i];
      if (nb < 0 || has_aux(nb)) continue;
      const Circumsphere ncs = circum(nb);
      if (!ncs.valid) continue;
      if (!oracle_.segment_may_intersect_surface(cs.center, ncs.center))
        continue;
      const auto hit =
          oracle_.segment_surface_intersection(cs.center, ncs.center);
      if (!hit) continue;
      const int f[3] = {tt.v[kFaceOf[i][0]], tt.v[kFaceOf[i][1]],
                        tt.v[kFaceOf[i][2]]};
      const Vec3& fa = dt_.point(f[0]);
      const Vec3& fb = dt_.point(f[1]);
      const Vec3& fc = dt_.point(f[2]);
      const bool bad_angle =
          min_triangle_angle(fa, fb, fc) < opt_.min_planar_angle_deg;
      const bool off_surface =
          !on_surface(kinds_[static_cast<std::size_t>(f[0])]) ||
          !on_surface(kinds_[static_cast<std::size_t>(f[1])]) ||
          !on_surface(kinds_[static_cast<std::size_t>(f[2])]);
      if (!bad_angle && !off_surface) continue;
      const double guard = 1e-3 * opt_.delta;
      if (distance(*hit, fa) < guard || distance(*hit, fb) < guard ||
          distance(*hit, fc) < guard) {
        continue;
      }
      return add_vertex(*hit, VertexKind::SurfaceCenter) >= 0;
    }

    if (!oracle_.inside(cs.center)) return false;
    return poor_volume_tet(t, cs) && insert_circumcenter(cs.center);
  }

  /// Sequential baselines have no removals; instead a circumcenter landing
  /// near a surface sample is rejected (the protecting-ball style guard
  /// restricted-Delaunay implementations use) and the encroached surface
  /// region is split instead (Ruppert-style), locally densifying the sample
  /// so the quality bound is still reached near ∂O. This is the work PI2M's
  /// R6 removals save.
  bool insert_circumcenter(const Vec3& c) {
    if (!box_.contains(c)) return false;
    if (surface_grid_.any_within(c, kProtectFactor * opt_.delta)) {
      const auto z = oracle_.closest_surface_point(c);
      if (z && !surface_grid_.any_within(*z, 0.45 * opt_.delta)) {
        return add_vertex(*z, VertexKind::SurfaceCenter) >= 0;
      }
      return false;
    }
    return add_vertex(c, VertexKind::Circumcenter) >= 0;
  }
};

/// The TetGen stand-in's rules: R4/R5 on interior tets, boundary protected.
class PlcMesher final : public ReferenceMesher {
 public:
  using ReferenceMesher::ReferenceMesher;

 private:
  bool refine_tet(int t) override {
    const Circumsphere cs = circum(t);
    if (!cs.valid || !oracle_.inside(cs.center)) return false;
    if (!poor_volume_tet(t, cs) || !box_.contains(cs.center)) return false;
    if (surface_grid_.any_within(cs.center, kPlcProtectFactor * opt_.delta)) {
      return false;
    }
    return add_vertex(cs.center, VertexKind::Circumcenter) >= 0;
  }
};

}  // namespace

ReferenceResult mesh_image_reference(const LabeledImage3D& img,
                                     const MeshingOptions& opt) {
  const double t0 = now_sec();
  const IsosurfaceOracle oracle(img, /*threads=*/1);
  ImageMesher mesher(oracle, opt);
  const double edt = now_sec() - t0;
  ReferenceResult res = mesher.run(TetMesh{});
  res.edt_sec = edt;
  res.wall_sec += edt;
  return res;
}

ReferenceResult mesh_volume_from_surface(const TetMesh& surface,
                                         const IsosurfaceOracle& oracle,
                                         const MeshingOptions& opt) {
  ReferenceResult res = PlcMesher(oracle, opt).run(surface);
  res.mesh.point_kinds.assign(res.mesh.points.size(),
                              VertexKind::Circumcenter);
  return res;
}

}  // namespace pi2m::baselines
