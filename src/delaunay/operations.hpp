// Speculative Delaunay operations: point location, Bowyer-Watson insertion
// and vertex removal, with per-vertex try-locks and rollback (paper §4.2).
//
// Both operations are *all-or-nothing*: they acquire every vertex they touch
// up front, validate the full change, and only then mutate the mesh. A lock
// failure produces OpStatus::Conflict and leaves the mesh untouched — the
// rollback the paper describes ("the operation is stopped and the changes
// are discarded").
#pragma once

#include <cstdint>
#include <vector>

#include "delaunay/glue_table.hpp"
#include "delaunay/mesh.hpp"

namespace pi2m {

namespace detail {
/// Hands out a block of `count` epoch values disjoint from every other block
/// ever issued (single process-wide atomic, bumped once per ~64k operations
/// per scratch, so it is never contended on the per-operation path).
std::uint64_t acquire_epoch_block(std::uint64_t count);
}  // namespace detail

enum class OpStatus : std::uint8_t {
  Success,   ///< mesh mutated, new cells reported
  Conflict,  ///< a vertex was held by another thread; nothing changed
  Stale,     ///< transient inconsistency (concurrent restructuring); retry
  Failed,    ///< operation is permanently inapplicable (duplicate point,
             ///< degenerate configuration, point outside the box)
};

struct OpResult {
  OpStatus status = OpStatus::Failed;
  std::int32_t conflicting_thread = -1;  ///< valid when status == Conflict
  VertexId new_vertex = kNoVertex;       ///< valid for successful insertions
};

/// Reusable per-thread scratch buffers so the hot path never allocates.
/// Cavity membership is O(1) via epoch-stamped cell marks: begin_op() draws a
/// globally unique epoch, cells entering the cavity (or its rejected-outside
/// rind) are stamped with it, and membership is a single relaxed load —
/// replacing the former O(cavity) linear scans that made cavity growth
/// quadratic. Face/edge gluing during commit goes through epoch-stamped hash
/// tables (GlueTable), also O(1) per face.
///
/// A scratch is bound to ONE mesh for its lifetime: its `freelist` holds
/// retired cell slots of that mesh, and reusing the scratch against a
/// different mesh would hand out foreign slot ids.
struct OpScratch {
  std::vector<VertexId> locked;
  std::vector<CellId> cavity;
  std::vector<CellId> bfs;
  struct BFace {
    CellId inside;
    int face;
    CellId outside;
    int mirror;        ///< index of this face in `outside` (-1 on the hull);
                       ///< recorded during the BFS while `outside` is pinned,
                       ///< so commit skips the 12-compare face_index_of scan
    VertexId a, b, c;  ///< ordered so orient3d(a,b,c, interior point) > 0
  };
  std::vector<BFace> bfaces;
  std::vector<CellId> created;  ///< output of the last successful operation
  struct GlueTarget {
    CellId cell;
    int face;
  };
  /// Open cavity-boundary edges -> (new cell, face) during insertion re-fill.
  GlueTable<std::uint64_t, GlueTarget> edge_glue;
  /// Open faces -> (cell, face) during ball re-triangulation (removal).
  GlueTable<std::array<VertexId, 3>, GlueTarget> face_glue;
  /// Sorted boundary triple -> bface index during ball extraction (removal).
  GlueTable<std::array<int, 3>, int> triple_index;
  CellFreeList freelist;
  /// Bump block of reserved vertex slots (mesh.create_vertex overload), so
  /// vertices created by this thread are contiguous and first-touched here.
  VertexBlock vblock;

  /// Epoch of the operation in flight; see Cell::mark.
  std::uint64_t epoch = 0;

  /// Starts a new operation: clears the per-op vectors and draws a fresh
  /// globally unique epoch for the cavity marks.
  void begin_op() {
    locked.clear();
    cavity.clear();
    bfs.clear();
    bfaces.clear();
    created.clear();
    if (epoch_next_ == epoch_end_) {
      constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
      epoch_next_ = detail::acquire_epoch_block(kBlock);
      epoch_end_ = epoch_next_ + kBlock;
    }
    epoch = epoch_next_++;
  }

  /// Mark values for the current operation (Cell::mark low-bit scheme).
  [[nodiscard]] std::uint64_t cavity_mark() const { return epoch << 1; }
  [[nodiscard]] std::uint64_t outside_mark() const { return (epoch << 1) | 1; }

  /// Locks `v` for `tid`, recording a newly acquired lock in `locked` for
  /// rollback. Returns false (filling `held_by`) when another thread owns it.
  bool lock_vertex(DelaunayMesh& mesh, VertexId v, int tid,
                   std::int32_t& held_by) {
    if (mesh.vertex(v).owner.load(std::memory_order_relaxed) == tid) {
      return true;
    }
    if (!mesh.try_lock_vertex(v, tid, held_by)) return false;
    locked.push_back(v);
    return true;
  }

  /// lock_vertex on each of the four vertices of `c`.
  bool lock_cell_vertices(DelaunayMesh& mesh, CellId c, int tid,
                          std::int32_t& held_by) {
    Cell& cl = mesh.cell(c);
    for (int i = 0; i < 4; ++i) {
      // Acquire atomic_ref read: `c` is not locked yet, so a concurrent
      // commit may be rewriting this (recycled) slot. Callers re-check
      // liveness and containment after all four locks are held.
      const VertexId vi =
          std::atomic_ref(cl.v[i]).load(std::memory_order_acquire);
      if (!lock_vertex(mesh, vi, tid, held_by)) return false;
    }
    return true;
  }

  /// Releases every lock recorded in `locked`.
  void unlock_all(DelaunayMesh& mesh, int tid) {
    for (VertexId v : locked) mesh.unlock_vertex(v, tid);
    locked.clear();
  }

 private:
  std::uint64_t epoch_next_ = 0;
  std::uint64_t epoch_end_ = 0;
};

struct LocateResult {
  CellId cell = kNoCell;
  bool ok = false;
};

/// Best-effort lock-free walk from `hint` to an alive cell containing `p`.
/// The result must be re-validated under locks by the caller; `ok == false`
/// means the walk was disrupted (dead hint, concurrent restructuring, or
/// step limit).
LocateResult locate_point(const DelaunayMesh& mesh, const Vec3& p, CellId hint,
                          int max_steps = 8192);

/// Scans cell slots starting at `near_hint` (wrapping) for any alive cell;
/// used to restart a walk whose hint died. kNoCell when the mesh has no
/// alive cells (never happens for a constructed mesh).
CellId any_alive_cell(const DelaunayMesh& mesh, CellId near_hint);

/// Inserts `p` into the triangulation (Bowyer-Watson over the conflict
/// cavity). On success `scratch.created` holds the new cells.
OpResult insert_point(DelaunayMesh& mesh, const Vec3& p, VertexKind kind,
                      CellId hint, int tid, OpScratch& scratch);

/// Fast path for refinement: inserts `p` given a cell known to conflict
/// with it (e.g. the bad cell whose circumcenter p is — a tetrahedron's
/// circumcenter always lies inside its own circumsphere). Skips the point-
/// location walk entirely: the cavity BFS is seeded at `conflict` and the
/// star-shape validation of the cavity boundary guarantees correctness.
/// `conflict_gen` is the caller's generation snapshot of the cell.
OpResult insert_point_in_conflict(DelaunayMesh& mesh, const Vec3& p,
                                  VertexKind kind, CellId conflict,
                                  std::uint32_t conflict_gen, int tid,
                                  OpScratch& scratch);

/// Removes vertex `p` by re-triangulating its ball with a local Delaunay
/// triangulation of the link, inserting older (smaller-timestamp) vertices
/// first (paper §4.2). On success `scratch.created` holds the new cells.
OpResult remove_vertex(DelaunayMesh& mesh, VertexId p, int tid,
                       OpScratch& scratch);

}  // namespace pi2m
