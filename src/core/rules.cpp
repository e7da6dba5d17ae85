#include "core/rules.hpp"

#include <cmath>

#include "core/refiner.hpp"  // MeshingOptions
#include "geometry/tetra.hpp"
#include "lattice/lattice_fill.hpp"

namespace pi2m {

const char* to_string(Rule r) {
  switch (r) {
    case Rule::None: return "none";
    case Rule::R1: return "R1";
    case Rule::R2: return "R2";
    case Rule::R3: return "R3";
    case Rule::R4: return "R4";
    case Rule::R5: return "R5";
  }
  return "?";
}

namespace {

/// The cache-eligible geometry of a cell, computed fresh from its vertex
/// positions and the (static) image: circumsphere, EDT lower bound on the
/// circumcenter's surface distance, inside-O test at the circumcenter.
///
/// Returns false when the slot was recycled while the positions were being
/// read (seqlock-style validation: a commit bumps the generation *before*
/// its release-stores to v[], so observing any of its vertex writes forces
/// the generation re-read to see the newer value). A false return means the
/// snapshot may be torn and MUST NOT be classified or published under `gen`.
bool compute_core(const DelaunayMesh& mesh, CellId c, std::uint32_t gen,
                  const IsosurfaceOracle& oracle,
                  CellGeomCache::CoreView& g) {
  const auto pos = mesh.positions(c);
  if (mesh.cell_gen(c) != gen) return false;  // recycled mid-read
  g.cs = circumsphere(pos[0], pos[1], pos[2], pos[3]);
  if (g.cs.valid) {
    g.surf_lb = oracle.surface_distance_lower_bound(g.cs.center);
    g.inside = oracle.inside(g.cs.center);
  }
  return true;
}

/// Cache-or-compute for the core geometry of (c, gen); publishes on a miss.
/// False when the slot was concurrently recycled (caller should treat the
/// cell as dead).
bool core_of(const DelaunayMesh& mesh, CellId c, std::uint32_t gen,
             const IsosurfaceOracle& oracle, CellGeomCache* cache, int tid,
             CellGeomCache::CoreView& g) {
  if (cache != nullptr && cache->load(c, gen, g, tid)) return true;
  if (!compute_core(mesh, c, gen, oracle, g)) return false;
  if (cache != nullptr) cache->store(c, gen, g);
  return true;
}

}  // namespace

Classification classify_cell(const DelaunayMesh& mesh, CellId c,
                             const IsosurfaceOracle& oracle,
                             const SpatialHashGrid& iso_grid,
                             const MeshingOptions& opt,
                             const lattice::LatticeFill* fill,
                             CellGeomCache* cache, int tid) {
  Classification out;
  const std::uint32_t gen = mesh.cell_gen(c);
  if ((gen & 1u) == 0) return out;  // not alive

  const Cell& cl = mesh.cell(c);

  // Cells spanned by box vertices only exist far outside the object until
  // the surface sample grows; they are still classified normally — their
  // circumballs intersect ∂O early on, which is exactly what bootstraps
  // surface recovery (paper Fig. 1b).
  CellGeomCache::CoreView g;
  if (!core_of(mesh, c, gen, oracle, cache, tid, g)) return out;
  const Circumsphere& cs = g.cs;
  if (!cs.valid) return out;  // degenerate slivers are unrefinable directly
  const double r = std::sqrt(cs.radius2);

  // Hybrid interior-fill constraint: a rule whose insertion point falls in
  // the lattice guard zone is suppressed (falls through to the next rule).
  // R1/R3 surface points are geometrically outside the zone, so only
  // quality/sizing refinement is muted near the structured interface.
  const auto allowed = [fill](const Vec3& p) {
    return fill == nullptr || !fill->protects(p);
  };

  // --- fidelity rules R1 / R2 -----------------------------------------
  // O(1) EDT prefilter first: most interior/exterior elements are nowhere
  // near ∂O and skip the ray walk entirely. The cached lower bound makes
  // this a comparison, not even an EDT grid fetch.
  const bool ball_may_hit = g.surf_lb <= r;
  if (ball_may_hit) {
    std::optional<Vec3> zhat;
    if (cache == nullptr || !cache->load_closest(c, gen, zhat, tid)) {
      zhat = oracle.closest_surface_point(cs.center);
      if (cache != nullptr) cache->store_closest(c, gen, zhat);
    }
    if (zhat.has_value() && distance(cs.center, *zhat) <= r) {
      if (!iso_grid.any_within(*zhat, opt.delta) && allowed(*zhat)) {
        out.rule = Rule::R1;
        out.point = *zhat;
        out.kind = VertexKind::Isosurface;
        return out;
      }
      if (r > 2.0 * opt.delta && allowed(cs.center)) {
        out.rule = Rule::R2;
        out.point = cs.center;
        out.kind = VertexKind::Circumcenter;
        return out;
      }
    }
  }

  // --- boundary facet rule R3 ------------------------------------------
  for (int i = 0; i < 4; ++i) {
    const CellId nb = cl.n[i].load(std::memory_order_acquire);
    if (nb == kNoCell) continue;
    const std::uint32_t ngen = mesh.cell_gen(nb);
    if ((ngen & 1u) == 0) continue;  // neighbour not alive
    // The neighbour's core geometry comes from (or seeds) the same cache —
    // an R3 scan used to recompute up to four neighbour circumspheres that
    // the neighbours' own classifications had already derived.
    CellGeomCache::CoreView ng;
    if (!core_of(mesh, nb, ngen, oracle, cache, tid, ng)) continue;
    const Circumsphere& ncs = ng.cs;
    if (!ncs.valid) continue;
    // Both circumcenters lie on the face's axis, so |c(t)c(nb)| <=
    // r(t)+r(nb) and the Voronoi edge V(f) is covered by the two
    // circumballs: it can only cross ∂O when one of them does.
    if (!ball_may_hit && ng.surf_lb > std::sqrt(ncs.radius2)) continue;
    // Segment prefilter from the two cached lower bounds (the inline
    // segment_may_intersect_surface would re-fetch both EDT estimates).
    if (g.surf_lb + ng.surf_lb > distance(cs.center, ncs.center)) continue;
    const auto hit = oracle.segment_surface_intersection(cs.center, ncs.center);
    if (!hit.has_value()) continue;

    // Acquire atomic_ref reads: classification runs without vertex locks
    // (the insertion re-validates the cell's generation afterwards), so a
    // commit may concurrently rewrite this recycled slot's v array.
    std::array<VertexId, 3> fv;
    for (int k = 0; k < 3; ++k) {
      fv[static_cast<std::size_t>(k)] =
          std::atomic_ref(const_cast<VertexId&>(cl.v[kFaceOf[i][k]]))
              .load(std::memory_order_acquire);
    }
    const Vec3& fa = mesh.position(fv[0]);
    const Vec3& fb = mesh.position(fv[1]);
    const Vec3& fc = mesh.position(fv[2]);
    const bool bad_angle =
        min_triangle_angle(fa, fb, fc) < opt.min_planar_angle_deg;
    const bool off_surface = !on_surface(mesh.vertex(fv[0]).kind) ||
                             !on_surface(mesh.vertex(fv[1]).kind) ||
                             !on_surface(mesh.vertex(fv[2]).kind);
    if (!bad_angle && !off_surface) continue;

    // Degeneracy guard: a surface-center (numerically) on top of a facet
    // vertex cannot make progress.
    const double guard = 1e-3 * opt.delta;
    if (distance(*hit, fa) < guard || distance(*hit, fb) < guard ||
        distance(*hit, fc) < guard) {
      continue;
    }
    if (!allowed(*hit)) continue;
    out.rule = Rule::R3;
    out.point = *hit;
    out.kind = VertexKind::SurfaceCenter;
    return out;
  }

  // --- volume rules R4 / R5 ---------------------------------------------
  // The inside-O test was resolved once per cell generation (compute_core)
  // and rides along in the cached word — no label fetch here.
  if (!g.inside) return out;

  const auto pos = mesh.positions(c);
  const double shortest = shortest_edge(pos[0], pos[1], pos[2], pos[3]);
  if (shortest > 0.0 && r / shortest > opt.radius_edge_bound &&
      allowed(cs.center)) {
    out.rule = Rule::R4;
    out.point = cs.center;
    out.kind = VertexKind::Circumcenter;
    return out;
  }
  if (opt.size_function && r > opt.size_function(cs.center) &&
      allowed(cs.center)) {
    out.rule = Rule::R5;
    out.point = cs.center;
    out.kind = VertexKind::Circumcenter;
    return out;
  }
  return out;
}

}  // namespace pi2m
