// Translators from the legacy per-module statistics structs into the
// unified MetricsRegistry namespace. Header-only on purpose: the registry
// core stays dependency-free (pi2m_telemetry links only pi2m_support) while
// these inline collectors may include any layer; each consumer (CLI, bench
// binaries, tests) already links the libraries whose structs it collects.
//
// Naming convention: "<area>.<metric>", lowercase, stable across PRs — the
// manifest's readers (tools/trace_summary.py, the CI manifest checks)
// treat these names as schema.
#pragma once

#include "core/pi2m.hpp"
#include "core/smoothing.hpp"
#include "core/validate.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"
#include "predicates/predicates.hpp"
#include "runtime/stats.hpp"
#include "telemetry/metrics_registry.hpp"

namespace pi2m::telemetry {

inline void collect_stats(MetricsRegistry& r, const StatsTotals& t) {
  r.set("refine.operations", t.operations);
  r.set("refine.insertions", t.insertions);
  r.set("refine.removals", t.removals);
  r.set("refine.rollbacks", t.rollbacks);
  r.set("refine.failed_ops", t.failed_ops);
  r.set("refine.cells_created", t.cells_created);
  r.set("refine.steals_intra_socket", t.steals_intra_socket);
  r.set("refine.steals_intra_blade", t.steals_intra_blade);
  r.set("refine.steals_inter_blade", t.steals_inter_blade);
  r.set("refine.steals_total", t.total_steals());
  r.set("refine.parks", t.parks);
  r.set("refine.unparks", t.unparks);
  r.set("refine.parked_sec", t.parked_sec);
  r.set("refine.contention_sec", t.contention_sec);
  r.set("refine.loadbalance_sec", t.loadbalance_sec);
  r.set("refine.rollback_sec", t.rollback_sec);
  r.set("refine.overhead_sec", t.total_overhead_sec());
}

inline void collect_outcome(MetricsRegistry& r, const RefineOutcome& o) {
  collect_stats(r, o.totals);
  r.set("refine.completed", o.completed);
  r.set("refine.livelocked", o.livelocked);
  r.set("refine.budget_exhausted", o.budget_exhausted);
  r.set("refine.cancelled", o.cancelled);
  r.set("refine.wall_sec", o.wall_sec);
  r.set("refine.edt_sec", o.edt_sec);
  // rule_counts[0] is Rule::None (never fired); R1..R5 are the paper rules.
  r.set("rules.r1", o.rule_counts[1]);
  r.set("rules.r2", o.rule_counts[2]);
  r.set("rules.r3", o.rule_counts[3]);
  r.set("rules.r4", o.rule_counts[4]);
  r.set("rules.r5", o.rule_counts[5]);
  // Geometry-cache effectiveness.
  r.set("classify.cache.hits", o.classify_cache_hits);
  r.set("classify.cache.misses", o.classify_cache_misses);
  const double cache_total =
      static_cast<double>(o.classify_cache_hits + o.classify_cache_misses);
  r.set("classify.cache.hit_rate",
        cache_total > 0.0 ? static_cast<double>(o.classify_cache_hits) /
                                cache_total
                          : 0.0);
  r.set("classify.csp.hits", o.classify_csp_hits);
  r.set("classify.csp.misses", o.classify_csp_misses);
  // Hybrid interior fill (all zero when --interior=delaunay or the image
  // had no deep-interior band).
  r.set("lattice.cells_filled", o.lattice_cubes);
  r.set("lattice.tets", o.lattice_tets);
  r.set("lattice.interface_vertices", o.lattice_seeds);
  r.set("lattice.fill_sec", o.lattice_fill_sec);
  r.set("lattice.seed_sec", o.lattice_seed_sec);
  r.set("lattice.seed_deferred", o.lattice_seed_deferred);
}

inline void collect_predicates(MetricsRegistry& r,
                               const PredicateCounters& c) {
  r.set("predicates.orient3d_calls", c.orient3d_calls);
  r.set("predicates.orient3d_adapt", c.orient3d_adapt);
  r.set("predicates.orient3d_exact", c.orient3d_exact);
  r.set("predicates.insphere_calls", c.insphere_calls);
  r.set("predicates.insphere_adapt", c.insphere_adapt);
  r.set("predicates.insphere_exact", c.insphere_exact);
}

inline void collect_mesh(MetricsRegistry& r, const TetMesh& m) {
  r.set("mesh.tets", m.num_tets());
  r.set("mesh.points", m.num_points());
  r.set("mesh.boundary_tris", m.boundary_tris.size());
}

/// Element throughput + interior/shell breakdown. `interior_tets` is the
/// template-tet count from the refine outcome; the remainder of the final
/// mesh is the Delaunay shell. `mesh_sec` is the meshing wall time
/// (refinement incl. lattice fill/seed; EDT excluded, as elements/s on the
/// serving path reuses cached EDTs).
inline void collect_throughput(MetricsRegistry& r, const TetMesh& m,
                               std::size_t interior_tets, double mesh_sec) {
  const std::size_t total = m.num_tets();
  const std::size_t interior = interior_tets < total ? interior_tets : total;
  r.set("mesh.interior_tets", interior);
  r.set("mesh.shell_tets", total - interior);
  r.set("mesh.elements_per_second",
        mesh_sec > 0.0 ? static_cast<double>(total) / mesh_sec : 0.0);
  r.set("mesh.us_per_element",
        total > 0 ? 1e6 * mesh_sec / static_cast<double>(total) : 0.0);
}

inline void collect_quality(MetricsRegistry& r, const QualityReport& q) {
  r.set("quality.num_tets", q.num_tets);
  r.set("quality.num_boundary_tris", q.num_boundary_tris);
  r.set("quality.max_radius_edge", q.max_radius_edge);
  r.set("quality.mean_radius_edge", q.mean_radius_edge);
  r.set("quality.min_dihedral_deg", q.min_dihedral_deg);
  r.set("quality.max_dihedral_deg", q.max_dihedral_deg);
  r.set("quality.min_boundary_planar_deg", q.min_boundary_planar_deg);
  r.set("quality.min_volume", q.min_volume);
  r.set("quality.total_volume", q.total_volume);
}

inline void collect_hausdorff(MetricsRegistry& r, const HausdorffResult& h) {
  r.set("fidelity.hausdorff", h.symmetric());
  r.set("fidelity.mesh_to_surface", h.mesh_to_surface);
  r.set("fidelity.surface_to_mesh", h.surface_to_mesh);
  // Depends on the oracle's thread count (see HausdorffResult).
  r.set("hausdorff.triangle_tests", h.triangle_tests);
}

inline void collect_smoothing(MetricsRegistry& r, const SmoothingReport& s) {
  r.set("smoothing.moves_accepted", s.moves_accepted);
  r.set("smoothing.moves_rejected", s.moves_rejected);
  r.set("smoothing.min_dihedral_before", s.min_dihedral_before);
  r.set("smoothing.min_dihedral_after", s.min_dihedral_after);
}

inline void collect_validation(MetricsRegistry& r, const MeshValidation& v) {
  r.set("validation.ok", v.ok);
  r.set("validation.errors", v.errors.size());
  r.set("validation.connected_components", v.connected_components);
  r.set("validation.boundary_edges_nonmanifold",
        v.boundary_edges_nonmanifold);
}

}  // namespace pi2m::telemetry
