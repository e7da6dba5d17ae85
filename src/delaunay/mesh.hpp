// Concurrent tetrahedral mesh storage for speculative Delaunay refinement.
//
// Design (paper §4):
//  * Vertices and cells live in chunked arenas that never move or free
//    memory while the mesh is alive, so concurrent readers never touch
//    freed storage.
//  * Every vertex carries an atomic owner word used as a try-lock; the
//    paper replaces pthread try-locks with GCC atomic built-ins — here we
//    use std::atomic compare-exchange, which compiles to the same
//    instructions.
//  * Cells carry a generation word: odd = alive, even = retired. A retired
//    cell slot may be recycled; stale references (PEL entries, walk steps)
//    detect recycling by comparing generations.
//
// Locking protocol invariants (relied on throughout insert/remove):
//  I1. Retiring a cell requires holding all 4 of its vertices.
//  I2. Writing a cell's neighbour slot n[i] requires holding the 3 vertices
//      of face i.
//  I3. Therefore: holding any vertex of a live cell keeps it alive, and
//      holding a face keeps the adjacency across that face stable.
//  Vertex positions are immutable after creation; vertex slots are never
//  recycled (removed vertices are only marked dead — removals are ~2% of
//  operations (paper §7), so the leaked slots are negligible).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geometry/vec3.hpp"
#include "support/arena_pool.hpp"
#include "support/common.hpp"

namespace pi2m {

enum class VertexKind : std::uint8_t {
  Box,            ///< virtual-box corner (never refined, never on ∂O)
  Isosurface,     ///< rule R1 sample point on ∂O
  SurfaceCenter,  ///< rule R3 Voronoi-edge/∂O intersection (also on ∂O)
  Circumcenter,   ///< rules R2/R4/R5 Steiner point (removable by R6)
  Lattice,        ///< protected BCC interface seed (hybrid interior fill)
};

/// True for vertex kinds that lie on the isosurface and participate in the
/// fidelity guarantees (Theorem 1).
constexpr bool on_surface(VertexKind k) {
  return k == VertexKind::Isosurface || k == VertexKind::SurfaceCenter;
}

/// Lock and bookkeeping words only: the position lives in the mesh's
/// separate position array (DelaunayMesh::position), so predicate reads
/// never share a cache line with lock traffic.
struct Vertex {
  std::atomic<std::int32_t> owner{-1};   ///< locking thread id, -1 = free
  std::atomic<CellId> incident_hint{kNoCell};  ///< some cell touching this vertex
  std::uint32_t timestamp = 0;  ///< global creation order (removal re-insertion order)
  VertexKind kind = VertexKind::Box;
  /// Defaults to true so block-reserved arena slots that were never handed
  /// out by create_vertex read as dead in live-vertex scans.
  std::atomic<bool> dead{true};
};
static_assert(sizeof(Vertex) == 16,
              "Vertex holds the lock and bookkeeping words only");

struct Cell {
  /// Plain for lock-holding readers/writers; the lock-free locate walk and
  /// the commit paths that rewrite recycled slots access elements through
  /// std::atomic_ref (release store / acquire load) — see locate.cpp.
  std::array<VertexId, 4> v{kNoVertex, kNoVertex, kNoVertex, kNoVertex};
  /// n[i] is the cell across the face opposite v[i]; kNoCell on the hull of
  /// the virtual box.
  std::array<std::atomic<CellId>, 4> n{kNoCell, kNoCell, kNoCell, kNoCell};
  /// Odd = alive. Incremented on retire and again on reuse.
  std::atomic<std::uint32_t> gen{0};
  /// Cavity-membership stamp for the operation that last examined this cell
  /// (see OpScratch::begin_op). Epoch values are globally unique across
  /// threads and operations, so a stale or foreign stamp can never alias the
  /// reader's current epoch; relaxed atomics keep the unsynchronized probe
  /// race-free. Low bit: 0 = in-cavity, 1 = outside (rejected neighbour).
  std::atomic<std::uint64_t> mark{0};
};

/// Vertex triple of face i of a positively-oriented cell (v0,v1,v2,v3),
/// ordered so that orient3d(face, v[i]) > 0 (the opposite vertex sees the
/// face counterclockwise).
constexpr std::array<std::array<int, 3>, 4> kFaceOf{{
    {1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}}};

/// Append-only arena with stable addresses and lock-free growth: a
/// ChunkArray plus an allocation counter.
template <typename T>
class ChunkedStore {
 public:
  explicit ChunkedStore(std::size_t capacity) : elems_(capacity) {}

  /// Allocates one default-constructed element; thread-safe.
  std::uint32_t allocate() {
    const std::uint32_t id = count_.fetch_add(1, std::memory_order_relaxed);
    PI2M_CHECK(id < capacity(),
               "arena capacity exceeded (DelaunayMesh::kMaxVertices/kMaxCells)");
    elems_.ensure(id);
    return id;
  }

  /// Reserves up to `want` contiguous elements in one shot (per-thread bump
  /// blocks — see DESIGN.md "Scheduling & memory locality"). Returns {first
  /// id, granted count}; the grant is clamped to the remaining capacity (a
  /// CAS loop, so near-full arenas degrade to small grants instead of
  /// tripping the capacity check for slots nobody would use). granted >= 1.
  std::pair<std::uint32_t, std::uint32_t> allocate_block(std::uint32_t want) {
    std::uint32_t cur = count_.load(std::memory_order_relaxed);
    std::uint32_t grant;
    do {
      PI2M_CHECK(
          cur < capacity(),
          "arena capacity exceeded (DelaunayMesh::kMaxVertices/kMaxCells)");
      grant = static_cast<std::uint32_t>(
          std::min<std::size_t>(want, capacity() - cur));
    } while (!count_.compare_exchange_weak(cur, cur + grant,
                                           std::memory_order_relaxed));
    // Install every chunk the block touches: its first id and each chunk
    // start after it.
    for (std::size_t id = cur; id < std::size_t{cur} + grant;
         id = (id | (ChunkArray<T>::kChunkSize - 1)) + 1) {
      elems_.ensure(static_cast<std::uint32_t>(id));
    }
    return {cur, grant};
  }

  T& operator[](std::uint32_t id) { return elems_[id]; }
  const T& operator[](std::uint32_t id) const { return elems_[id]; }

  [[nodiscard]] std::uint32_t size() const {
    return count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return elems_.capacity(); }

 private:
  ChunkArray<T> elems_;
  std::atomic<std::uint32_t> count_{0};
};

/// Per-thread recycling pool for retired cell slots, plus a bump block of
/// fresh slots reserved from the arena in batches (allocate_block). Both
/// keep a thread's allocations contiguous and recycled by the thread that
/// touched them last — the memory-locality half of the scheduler overhaul.
struct CellFreeList {
  std::vector<CellId> slots;
  CellId block_next = 0;  ///< next unused slot of the reserved block
  CellId block_end = 0;   ///< one past the reserved block (0 = no block)
};

/// Per-thread bump block of reserved vertex slots (lives in OpScratch, one
/// per worker). Reserved-unused slots stay flagged dead (see Vertex::dead).
struct VertexBlock {
  VertexId next = 0;
  VertexId end = 0;  ///< one past the block; next == end => exhausted
};

class DelaunayMesh {
 public:
  /// Arena capacities. Chunks install lazily (ChunkArray), so a capacity
  /// only sizes the chunk directories; the refiner and the op-log replayer
  /// share these by construction.
  static constexpr std::size_t kMaxVertices = std::size_t{1} << 22;
  static constexpr std::size_t kMaxCells = std::size_t{1} << 24;

  /// Builds the virtual box enclosing `box`, triangulated into 6 tetrahedra
  /// (paper Fig. 1a) — the only sequential step of the algorithm.
  /// `arena_block` is the per-thread bump-block size used by allocate_cell /
  /// the block create_vertex overload; 1 (the default) reserves slots one at
  /// a time, which is what direct constructions (tests, tools) want — the
  /// refiner passes a larger block sized to its thread count.
  explicit DelaunayMesh(const Aabb& box, std::uint32_t arena_block = 1);

  [[nodiscard]] const Aabb& box() const { return box_; }

  // ---- vertices ----
  Vertex& vertex(VertexId v) { return vertices_[v]; }
  [[nodiscard]] const Vertex& vertex(VertexId v) const { return vertices_[v]; }
  /// Position of a created vertex (immutable after creation).
  [[nodiscard]] const Vec3& position(VertexId v) const {
    return positions_[v];
  }
  [[nodiscard]] std::uint32_t vertex_count() const { return vertices_.size(); }
  [[nodiscard]] const std::array<VertexId, 8>& box_vertices() const {
    return box_vertices_;
  }

  /// Creates a vertex (timestamped with the global creation counter) that is
  /// born locked by `tid`.
  VertexId create_vertex(const Vec3& pos, VertexKind kind, int tid);
  /// Same, but drawing the slot from the caller's bump block (refilled from
  /// the arena in arena_block-sized reservations).
  VertexId create_vertex(const Vec3& pos, VertexKind kind, int tid,
                         VertexBlock& blk);

  /// Try-lock. Succeeds immediately when `tid` already owns the vertex.
  /// On failure stores the observed owner in `held_by`.
  bool try_lock_vertex(VertexId v, int tid, std::int32_t& held_by);
  void unlock_vertex(VertexId v, int tid);

  // ---- cells ----
  Cell& cell(CellId c) { return cells_[c]; }
  [[nodiscard]] const Cell& cell(CellId c) const { return cells_[c]; }
  [[nodiscard]] std::uint32_t cell_slot_count() const { return cells_.size(); }
  /// Capacity of the cell arena. Side arenas indexed by CellId (e.g. the
  /// generation-tagged geometry cache, delaunay/geom_cache.hpp) size
  /// themselves to this so every slot id is addressable.
  [[nodiscard]] std::size_t cell_capacity() const { return cells_.capacity(); }

  [[nodiscard]] bool cell_alive(CellId c) const {
    return (cells_[c].gen.load(std::memory_order_acquire) & 1u) != 0;
  }
  [[nodiscard]] std::uint32_t cell_gen(CellId c) const {
    return cells_[c].gen.load(std::memory_order_acquire);
  }

  /// Allocates a cell slot (recycled or fresh) and marks it alive.
  CellId allocate_cell(CellFreeList& fl);
  /// Retires an alive cell (caller holds all 4 vertices, invariant I1).
  void retire_cell(CellId c, CellFreeList& fl);

  /// Convenience for readers: the four vertex positions of a cell. Caller
  /// must guarantee the cell is stable (holds a vertex of it) or tolerate
  /// a torn read detected via generation re-check.
  [[nodiscard]] std::array<Vec3, 4> positions(CellId c) const;

  /// Number of alive cells (linear scan; used by tests/statistics only).
  [[nodiscard]] std::size_t count_alive_cells() const;

  /// Walks all alive cells, calling fn(CellId). Only valid when no thread
  /// is mutating the mesh.
  template <typename Fn>
  void for_each_alive_cell(Fn&& fn) const {
    const std::uint32_t n = cells_.size();
    for (CellId c = 0; c < n; ++c) {
      if (cell_alive(c)) fn(c);
    }
  }

  /// Face index of `c` whose three vertices are exactly {a,b,c} (any
  /// order); -1 when no such face exists.
  [[nodiscard]] int face_index_of(CellId c, VertexId fa, VertexId fb,
                                  VertexId fc) const;

  // ---- integrity checks (tests) ----
  /// Verifies adjacency symmetry, positive orientation, and (optionally)
  /// the Delaunay property for all alive cells. Returns an error string,
  /// empty on success. Quadratic-ish; call on small meshes only.
  [[nodiscard]] std::string check_integrity(bool check_delaunay) const;

  /// Sum of cell volumes (should equal the virtual box volume at all times).
  [[nodiscard]] double total_volume() const;

 private:
  void build_initial_box();
  /// Fills slot `id` and hands it to `tid` (the owner release-store).
  void publish_vertex(VertexId id, const Vec3& pos, VertexKind kind, int tid);

  Aabb box_;
  ChunkedStore<Vertex> vertices_;
  /// Indexed by VertexId; each entry is written once, by create_vertex.
  ChunkArray<Vec3> positions_;
  ChunkedStore<Cell> cells_;
  std::array<VertexId, 8> box_vertices_{};
  std::atomic<std::uint32_t> next_timestamp_{0};
  std::uint32_t arena_block_;
};

}  // namespace pi2m
