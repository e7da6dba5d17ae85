// Hybrid structured-interior fill: BCC lattice templates for the deep
// interior, Delaunay refinement for the near-surface shell.
//
// The deep interior of O — everything farther than ~2δ from ∂O — carries no
// surface information, yet pure Delaunay refinement pays the full
// speculative Bowyer-Watson cost per element there. This subsystem fills
// that band with the tetragonal disphenoid honeycomb: the Delaunay
// triangulation of a body-centered-cubic point set. Each disphenoid has
// dihedral angles of exactly 60°/90° (optimal space-filling quality) and
// costs an append, not a cavity operation.
//
// Conformity is by construction, not by stitch repair. The kernel is seeded
// (pre-refinement, in BRIO rounds across the refiner's threads) with every
// lattice point on or near the region boundary ∂L. Because the disphenoids
// ARE the Delaunay cells of the BCC point set, every boundary disphenoid's
// circumsphere is strictly empty of all other lattice points; the
// refinement rules are forbidden (via `protects`) from inserting inside the
// guard zone covering those circumspheres, so the boundary disphenoids are
// present verbatim in the final kernel triangulation. Delaunay triangulations are face-to-face,
// hence no kernel cell straddles ∂L and the lattice/shell interface is
// watertight with shared vertex indices.
//
// See DESIGN.md "Hybrid structured-interior fill" for the band arithmetic
// and the full conformity argument.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/isosurface.hpp"

namespace pi2m {

/// Interior meshing strategy (MeshingOptions::interior).
enum class InteriorFill : std::uint8_t {
  Delaunay,  ///< pure Delaunay refinement everywhere (pre-hybrid behaviour)
  Lattice,   ///< BCC template bulk + Delaunay skin (default)
};

const char* interior_name(InteriorFill k);
std::optional<InteriorFill> parse_interior_name(std::string_view s);

namespace lattice {

struct LatticeStats {
  std::size_t cubes_total = 0;     ///< cubes in the covering grid
  std::size_t cubes_filled = 0;    ///< cubes deep enough to occupy
  std::size_t faces = 0;           ///< instantiated interior faces (4 tets each)
  std::size_t tets = 0;            ///< template tets (= 4 * faces)
  std::size_t interface_vertices = 0;  ///< lattice points seeded as protected
  double cube_size = 0.0;          ///< lattice spacing a (world units)
};

/// The BCC lattice fill of one oracle's deep-interior band.
///
/// Geometry: an axis-aligned cube grid of spacing `a` anchored at the image
/// bounds origin. Lattice points live on doubled-integer coordinates (even =
/// cube corners, odd = cube centers), packed 21 bits per axis into a uint64
/// key — the vnBccTetrahedra-style centroid indexing scheme. A cube is
/// occupied when the EDT certifies its center is deeper than
/// 2δ + 2.7a from ∂O (so the whole guard zone stays ≥ 2δ inside O, and the
/// cube is automatically single-label). Each face between two occupied
/// same-label cubes instantiates the 4 disphenoids of its bipyramid.
///
/// The interface points are ordered at construction for insertion:
/// biased randomized insertion order (BRIO) rounds, sparsest first, each
/// Morton-sorted. A fixed hash of the key picks the round, so the order
/// does not depend on the thread count.
///
/// Immutable after construction except for the seeded-vertex table that
/// seed_interface fills; concurrent `contains`/`protects` queries are safe.
class LatticeFill {
 public:
  /// Builds occupancy + face tables from the EDT. `spacing` <= 0 selects
  /// the automatic spacing 2δ. `threads` parallelizes the occupancy scan
  /// and face instantiation over lattice-cube blocks.
  LatticeFill(const IsosurfaceOracle& oracle, double delta, double spacing,
              int threads);

  [[nodiscard]] bool empty() const { return stats_.cubes_filled == 0; }
  [[nodiscard]] const LatticeStats& stats() const { return stats_; }
  [[nodiscard]] double cube_size() const { return a_; }

  /// O(1): is p inside the lattice region L (the union of instantiated
  /// bipyramids)? Used by extraction to drop kernel cells the templates
  /// replace. On true, `label` (if non-null) receives the material label.
  [[nodiscard]] bool contains(const Vec3& p, Label* label = nullptr) const;

  /// O(1): is p inside the guard zone G (occupancy dilated by one cube
  /// ring)? G covers every boundary-disphenoid circumsphere (reach 0.559a <
  /// a), so refinement rules refuse to insert here and the seeded interface
  /// stays Delaunay-present. By the band margin, G never reaches within 2δ
  /// of ∂O — surface sampling (R1/R3) is untouched.
  [[nodiscard]] bool protects(const Vec3& p) const;

  /// Inserts every interface lattice point (the "wall + rind": any used
  /// point whose cube neighbourhood is not fully deep) into the kernel as a
  /// protected VertexKind::Lattice vertex, round by round in the BRIO
  /// order. Thread t inserts with tid t through `*scratch[t]`; the calling
  /// thread is thread 0. Rounds smaller than a fixed size run on the calling
  /// thread. Larger ones are split into one contiguous Morton block per
  /// thread and inserted concurrently with the lock-based insert_point; a
  /// seed whose insertion does not commit (lock conflict) is deferred, and
  /// the calling thread inserts the round's deferred seeds in order once
  /// the round's threads have joined. Nothing is retried across threads, so
  /// seeding cannot livelock. With one scratch the run is sequential and
  /// deterministic. Call once, pre-refinement, on the quiescent mesh.
  /// Returns the number of deferred seeds.
  std::size_t seed_interface(DelaunayMesh& mesh,
                             const std::vector<OpScratch*>& scratch);

  /// Interface lattice point keys in insertion order (BRIO rounds,
  /// Morton-sorted within each).
  [[nodiscard]] const std::vector<std::uint64_t>& interface_keys() const {
    return seed_keys_;
  }

  /// Kernel vertex id of a seeded lattice point (kNoVertex when the key was
  /// not part of the seeded interface).
  [[nodiscard]] VertexId seeded_vertex(std::uint64_t key) const;

  /// World position of a lattice point key (exact: origin + key * a/2, the
  /// same computation seeding used, so shared vertices are bit-identical).
  [[nodiscard]] Vec3 point_of(std::uint64_t key) const;

  /// Enumerates the template tets: fn(keys, positions, label) once per tet,
  /// vertices in positive orient3d order. Deterministic face order.
  void for_each_tet(
      const std::function<void(const std::array<std::uint64_t, 4>& keys,
                               const std::array<Vec3, 4>& pos, Label label)>&
          fn) const;

 private:
  [[nodiscard]] std::size_t cube_index(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(ncy_) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(ncx_) +
           static_cast<std::size_t>(i);
  }
  [[nodiscard]] bool cube_in_grid(std::int64_t i, std::int64_t j,
                                  std::int64_t k) const {
    return i >= 0 && i < ncx_ && j >= 0 && j < ncy_ && k >= 0 && k < ncz_;
  }
  [[nodiscard]] Vec3 cube_center(int i, int j, int k) const;
  void build_occupancy(const IsosurfaceOracle& oracle, int threads);
  void erode_deep(int threads);
  void collect_faces(int threads);
  void collect_seed_keys();

  Vec3 origin_{};   ///< world position of lattice point (0,0,0)
  double a_ = 0.0;  ///< cube size (lattice spacing)
  double band_ = 0.0;  ///< EDT clearance required at an occupied center
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;

  /// Per-cube material label; 0 = unoccupied.
  std::vector<Label> occ_;
  /// Chebyshev-radius-2 erosion of occupancy: a point all of whose incident
  /// cubes are deep cannot touch a boundary disphenoid and needs no seed.
  std::vector<std::uint8_t> deep_;
  /// Instantiated interior faces, packed (cube_index << 2) | axis.
  std::vector<std::uint64_t> faces_;
  /// Interface lattice points in insertion order; round r spans
  /// [round_end_[r-1], round_end_[r]).
  std::vector<std::uint64_t> seed_keys_;
  std::vector<std::size_t> round_end_;
  std::unordered_map<std::uint64_t, VertexId> seeded_;
  LatticeStats stats_;
};

}  // namespace lattice
}  // namespace pi2m
