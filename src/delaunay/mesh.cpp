#include "delaunay/mesh.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "delaunay/operations.hpp"
#include "geometry/tetra.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {

namespace detail {

std::uint64_t acquire_epoch_block(std::uint64_t count) {
  // Starts at 1 so no operation ever uses epoch 0: freshly-constructed cells
  // carry mark == 0, which must never match a live epoch.
  static std::atomic<std::uint64_t> g_next_epoch{1};
  return g_next_epoch.fetch_add(count, std::memory_order_relaxed);
}

}  // namespace detail

DelaunayMesh::DelaunayMesh(const Aabb& box, std::uint32_t arena_block)
    : box_(box),
      vertices_(kMaxVertices),
      positions_(kMaxVertices),
      cells_(kMaxCells),
      arena_block_(std::clamp<std::uint32_t>(
          arena_block, 1, ChunkArray<Cell>::kChunkSize)) {
  PI2M_CHECK(box.hi.x > box.lo.x && box.hi.y > box.lo.y && box.hi.z > box.lo.z,
             "virtual box must have positive extent");
  build_initial_box();
}

VertexId DelaunayMesh::create_vertex(const Vec3& pos, VertexKind kind,
                                     int tid) {
  const VertexId id = vertices_.allocate();
  publish_vertex(id, pos, kind, tid);
  return id;
}

VertexId DelaunayMesh::create_vertex(const Vec3& pos, VertexKind kind, int tid,
                                     VertexBlock& blk) {
  if (blk.next == blk.end) {
    // Vertex blocks refill at half the cell block size: operations create
    // ~1 vertex but several cells.
    const auto [first, granted] =
        vertices_.allocate_block(std::max<std::uint32_t>(arena_block_ / 2, 1));
    blk.next = first;
    blk.end = first + granted;
  }
  const VertexId id = blk.next++;
  publish_vertex(id, pos, kind, tid);
  return id;
}

void DelaunayMesh::publish_vertex(VertexId id, const Vec3& pos,
                                  VertexKind kind, int tid) {
  // Publication contract: the single creating thread writes the position
  // BEFORE the owner release-store below. Readers only learn vertex ids
  // through acquire loads that read from that store chain (cell v[]
  // snapshots, locate walks), so by those happens-before edges the
  // position is visible whenever the id is, with no lock taken to read it.
  // Checked under 1/2/4-thread churn by the sanitize-labelled
  // position-publication tests.
  positions_.ensure(id) = pos;
  Vertex& v = vertices_[id];
  v.kind = kind;
  v.timestamp = next_timestamp_.fetch_add(1, std::memory_order_relaxed);
  v.dead.store(false, std::memory_order_relaxed);
  v.owner.store(tid, std::memory_order_release);
}

bool DelaunayMesh::try_lock_vertex(VertexId vid, int tid,
                                   std::int32_t& held_by) {
  Vertex& v = vertices_[vid];
  std::int32_t expected = -1;
  if (v.owner.compare_exchange_strong(expected, tid,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    return true;
  }
  if (expected == tid) return true;  // reentrant
  held_by = expected;
  return false;
}

void DelaunayMesh::unlock_vertex(VertexId vid, int tid) {
  Vertex& v = vertices_[vid];
  PI2M_CHECK(v.owner.load(std::memory_order_relaxed) == tid,
             "unlocking a vertex not held by this thread");
  v.owner.store(-1, std::memory_order_release);
}

CellId DelaunayMesh::allocate_cell(CellFreeList& fl) {
  CellId id;
  if (!fl.slots.empty()) {
    // Recycle-first: slots this thread retired are hottest in its cache.
    id = fl.slots.back();
    fl.slots.pop_back();
  } else if (fl.block_next != fl.block_end) {
    id = fl.block_next++;
  } else {
    const auto [first, granted] = cells_.allocate_block(arena_block_);
    id = first;
    fl.block_next = first + 1;
    fl.block_end = first + granted;
  }
  Cell& c = cells_[id];
  // even -> odd: alive. Release pairs with generation re-checks in readers.
  // Plain load+store instead of an RMW: the slot is exclusively ours here
  // (fresh from the arena, or from this thread's own freelist), so there is
  // no competing writer to serialize against.
  c.gen.store(c.gen.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
  return id;
}

void DelaunayMesh::retire_cell(CellId cid, CellFreeList& fl) {
  Cell& c = cells_[cid];
  // Single writer: only the thread holding all four vertex locks may retire
  // a cell, so load+store needs no lock prefix.
  const std::uint32_t g = c.gen.load(std::memory_order_relaxed);
  PI2M_CHECK((g & 1u) != 0, "retiring a cell that is not alive");
  c.gen.store(g + 1, std::memory_order_release);
  fl.slots.push_back(cid);
}

std::array<Vec3, 4> DelaunayMesh::positions(CellId c) const {
  // Acquire atomic_ref reads of v: some callers (locate walk, refiner work
  // distribution) snapshot cells without holding their vertex locks, racing
  // with commits that rewrite recycled slots; lock-holding callers pay a
  // plain load on x86. Reading-from a committer's release store orders the
  // vertices' position writes before the position reads below.
  const Cell& cl = cells_[c];
  std::array<Vec3, 4> out;
  for (int i = 0; i < 4; ++i) {
    const VertexId vi = std::atomic_ref(const_cast<VertexId&>(cl.v[i]))
                            .load(std::memory_order_acquire);
    out[static_cast<std::size_t>(i)] = positions_[vi];
  }
  return out;
}

std::size_t DelaunayMesh::count_alive_cells() const {
  std::size_t n = 0;
  for_each_alive_cell([&](CellId) { ++n; });
  return n;
}

int DelaunayMesh::face_index_of(CellId c, VertexId fa, VertexId fb,
                                VertexId fc) const {
  const Cell& cl = cells_[c];
  for (int i = 0; i < 4; ++i) {
    const VertexId opp = cl.v[i];
    if (opp != fa && opp != fb && opp != fc) {
      const VertexId a = cl.v[kFaceOf[i][0]];
      const VertexId b = cl.v[kFaceOf[i][1]];
      const VertexId cc = cl.v[kFaceOf[i][2]];
      const bool match = (a == fa || a == fb || a == fc) &&
                         (b == fa || b == fb || b == fc) &&
                         (cc == fa || cc == fb || cc == fc);
      if (match) return i;
    }
  }
  return -1;
}

void DelaunayMesh::build_initial_box() {
  // Corner b = (x | y<<1 | z<<2) bit pattern (paper Fig. 1a).
  for (int b = 0; b < 8; ++b) {
    const Vec3 p{(b & 1) ? box_.hi.x : box_.lo.x,
                 (b & 2) ? box_.hi.y : box_.lo.y,
                 (b & 4) ? box_.hi.z : box_.lo.z};
    box_vertices_[static_cast<std::size_t>(b)] =
        create_vertex(p, VertexKind::Box, /*tid=*/0);
    vertex(box_vertices_[static_cast<std::size_t>(b)]).owner.store(-1);
  }

  // Kuhn subdivision: 6 tetrahedra around the main diagonal 000 -> 111.
  // Each permutation of the axes gives one path 000 -> 111 through the cube.
  constexpr int kPaths[6][4] = {{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7},
                                {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}};
  CellFreeList fl;
  std::vector<CellId> made;
  for (const auto& path : kPaths) {
    const CellId cid = allocate_cell(fl);
    Cell& c = cell(cid);
    for (int k = 0; k < 4; ++k) {
      c.v[static_cast<std::size_t>(k)] =
          box_vertices_[static_cast<std::size_t>(path[k])];
    }
    const auto p = positions(cid);
    if (orient3d(p[0], p[1], p[2], p[3]) < 0) std::swap(c.v[2], c.v[3]);
    PI2M_CHECK(orient3d(position(c.v[0]), position(c.v[1]), position(c.v[2]),
                        position(c.v[3])) > 0,
               "initial box cell is degenerate");
    for (int k = 0; k < 4; ++k) {
      vertex(c.v[static_cast<std::size_t>(k)])
          .incident_hint.store(cid, std::memory_order_relaxed);
    }
    made.push_back(cid);
  }

  // Brute-force adjacency for the 6 initial cells.
  std::map<std::tuple<VertexId, VertexId, VertexId>, std::pair<CellId, int>>
      faces;
  for (CellId cid : made) {
    Cell& c = cell(cid);
    for (int i = 0; i < 4; ++i) {
      std::array<VertexId, 3> f{c.v[static_cast<std::size_t>(kFaceOf[i][0])],
                                c.v[static_cast<std::size_t>(kFaceOf[i][1])],
                                c.v[static_cast<std::size_t>(kFaceOf[i][2])]};
      std::sort(f.begin(), f.end());
      const auto key = std::make_tuple(f[0], f[1], f[2]);
      auto it = faces.find(key);
      if (it == faces.end()) {
        faces.emplace(key, std::make_pair(cid, i));
      } else {
        c.n[static_cast<std::size_t>(i)].store(it->second.first,
                                               std::memory_order_release);
        cell(it->second.first)
            .n[static_cast<std::size_t>(it->second.second)]
            .store(cid, std::memory_order_release);
      }
    }
  }
}

std::string DelaunayMesh::check_integrity(bool check_delaunay) const {
  std::ostringstream err;
  std::vector<CellId> alive;
  for_each_alive_cell([&](CellId c) { alive.push_back(c); });

  for (CellId c : alive) {
    const Cell& cl = cells_[c];
    const auto p = positions(c);
    if (orient3d(p[0], p[1], p[2], p[3]) <= 0) {
      err << "cell " << c << " not positively oriented\n";
    }
    for (int i = 0; i < 4; ++i) {
      const CellId nb = cl.n[static_cast<std::size_t>(i)].load();
      if (nb == kNoCell) continue;
      if (!cell_alive(nb)) {
        err << "cell " << c << " neighbour " << nb << " is dead\n";
        continue;
      }
      const Cell& nc = cells_[nb];
      bool back = false;
      for (int j = 0; j < 4; ++j) {
        if (nc.n[static_cast<std::size_t>(j)].load() == c) back = true;
      }
      if (!back) err << "adjacency not symmetric between " << c << " and " << nb << "\n";
      // The shared face must consist of the same 3 vertices.
      const VertexId fa = cl.v[static_cast<std::size_t>(kFaceOf[i][0])];
      const VertexId fb = cl.v[static_cast<std::size_t>(kFaceOf[i][1])];
      const VertexId fc = cl.v[static_cast<std::size_t>(kFaceOf[i][2])];
      if (face_index_of(nb, fa, fb, fc) < 0) {
        err << "cells " << c << "," << nb << " disagree on shared face\n";
      }
    }
  }

  if (check_delaunay) {
    // Every alive vertex must lie on or outside the circumsphere of every
    // alive cell.
    std::vector<VertexId> verts;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
      if (!vertices_[v].dead.load()) verts.push_back(v);
    }
    for (CellId c : alive) {
      const Cell& cl = cells_[c];
      const auto p = positions(c);
      for (VertexId v : verts) {
        if (v == cl.v[0] || v == cl.v[1] || v == cl.v[2] || v == cl.v[3])
          continue;
        if (insphere(p[0], p[1], p[2], p[3], positions_[v]) > 0) {
          err << "vertex " << v << " violates Delaunay for cell " << c << "\n";
        }
      }
    }
  }
  return err.str();
}

double DelaunayMesh::total_volume() const {
  double vol = 0.0;
  for_each_alive_cell([&](CellId c) {
    const auto p = positions(c);
    vol += signed_volume(p[0], p[1], p[2], p[3]);
  });
  return vol;
}

}  // namespace pi2m
