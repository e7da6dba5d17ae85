#include "core/validate.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <utility>

#include "geometry/tetra.hpp"
#include "predicates/predicates.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {
namespace {

constexpr int kTetFaces[4][3] = {{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}};

/// A triangle's vertices in increasing order: the smallest is its bucket,
/// the other two pack into one 64-bit key (mid << 32 | max). Bucket, then
/// key, is the lexicographic order of the sorted vertex triple.
struct SplitFace {
  std::uint32_t lo;
  std::uint64_t key;
};

SplitFace split_face(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return {a, std::uint64_t{b} << 32 | c};
}

struct OwnedFace {
  std::uint64_t key;
  std::uint32_t owner;  ///< index of the tet the face belongs to
};

/// Union-find over tet indices that any number of threads update at once.
/// A link hangs the larger root under the smaller one by a CAS on the
/// root's own entry, and path halving only ever replaces a parent by one of
/// its ancestors, so every parent is at most its child: the forest never
/// has a cycle, and after the threads join its roots are exactly the
/// smallest tet of each connected component, whatever order the links ran
/// in. Relaxed order suffices: the parents are the only shared state, the
/// argument needs only that each CAS is atomic on its own entry, and the
/// join orders the final reads.
class ConcurrentUnionFind {
 public:
  explicit ConcurrentUnionFind(std::size_t n) : parent_(n) {}

  void reset(std::size_t i) {
    parent_[i].store(static_cast<std::uint32_t>(i), std::memory_order_relaxed);
  }

  [[nodiscard]] bool is_root(std::size_t i) const {
    return parent_[i].load(std::memory_order_relaxed) == i;
  }

  std::uint32_t find(std::uint32_t x) {
    for (;;) {
      std::uint32_t p = parent_[x].load(std::memory_order_relaxed);
      if (p == x) return x;
      const std::uint32_t g = parent_[p].load(std::memory_order_relaxed);
      if (g != p) {
        parent_[x].compare_exchange_weak(p, g, std::memory_order_relaxed);
      }
      x = g;
    }
  }

  void unite(std::uint32_t a, std::uint32_t b) {
    for (;;) {
      a = find(a);
      b = find(b);
      if (a == b) return;
      if (a < b) std::swap(a, b);
      std::uint32_t root = a;
      if (parent_[a].compare_exchange_strong(root, b,
                                             std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  std::vector<std::atomic<std::uint32_t>> parent_;
};

/// What one vertex-range block of the conformity pass found, in key order.
struct RangeReport {
  std::vector<std::string> boundary_errors;
  std::vector<std::string> face_errors;
  std::size_t nonmanifold_edges = 0;
};

}  // namespace

MeshValidation validate_mesh(const TetMesh& mesh, int threads) {
  MeshValidation v;
  auto fail = [&v](std::string msg) { v.errors.push_back(std::move(msg)); };

  // --- array and index sanity ---
  if (mesh.point_kinds.size() != mesh.points.size()) {
    fail("point_kinds size mismatch");
  }
  if (mesh.tet_labels.size() != mesh.tets.size()) {
    fail("tet_labels size mismatch");
  }
  const auto n = static_cast<std::uint32_t>(mesh.points.size());
  for (const auto& t : mesh.tets) {
    for (const std::uint32_t w : t) {
      if (w >= n) {
        fail("tet vertex index out of range");
        break;
      }
    }
  }
  for (const auto& f : mesh.boundary_tris) {
    for (const std::uint32_t w : f) {
      if (w >= n) {
        fail("boundary vertex index out of range");
        break;
      }
    }
  }
  if (!v.errors.empty()) return v;  // indices unusable below

  // --- element sanity ---
  // Sliver threshold: relative to the mesh's own scale so validation is
  // unit-independent. 1e-12 of diag^3 is far below any element a sizing-
  // driven refinement legitimately produces, but still ~4 orders of
  // magnitude above double rounding noise at the bbox scale.
  Aabb bbox;
  for (const Vec3& p : mesh.points) bbox.expand(p);
  const double diag = mesh.points.empty() ? 0.0 : norm(bbox.extent());
  const double sliver_vol = 1e-12 * diag * diag * diag;
  const auto blocks = static_cast<std::size_t>(
      threads > 0 ? threads : post_threads(mesh.tets.size()));
  // Each block collects its own errors; concatenated in block order they
  // are the serial loop's errors, in its order.
  struct Sanity {
    std::vector<std::string> errors;
    std::size_t slivers = 0;
  };
  std::vector<Sanity> part(blocks);
  ConcurrentUnionFind components(mesh.tets.size());
  parallel_indexed_blocks(mesh.tets.size(), blocks, [&](std::size_t k,
                                                        std::size_t b,
                                                        std::size_t e) {
    Sanity& s = part[k];
    for (std::size_t i = b; i < e; ++i) {
      components.reset(i);  // every tet starts as its own component
      const auto& t = mesh.tets[i];
      // The exact predicate decides degenerate/inverted: the floating-point
      // volume of a coplanar quadruple can round to a nonzero value (and an
      // inverted sliver's to a positive one), so fabs(vol) <= 0.0 misses
      // both.
      const int sign = orient3d(mesh.points[t[0]], mesh.points[t[1]],
                                mesh.points[t[2]], mesh.points[t[3]]);
      if (sign == 0) {
        s.errors.emplace_back("degenerate (coplanar) tetrahedron");
      } else if (sign < 0) {
        s.errors.emplace_back("inverted (negatively oriented) tetrahedron");
      } else {
        const double vol = signed_volume(mesh.points[t[0]], mesh.points[t[1]],
                                         mesh.points[t[2]], mesh.points[t[3]]);
        if (vol < sliver_vol) ++s.slivers;
      }
      if (i < mesh.tet_labels.size() && mesh.tet_labels[i] == 0) {
        s.errors.emplace_back("element with background label");
      }
    }
  });
  for (Sanity& s : part) {
    for (std::string& msg : s.errors) fail(std::move(msg));
    v.sliver_elements += s.slivers;
  }

  // --- face conformity, components and boundary edges ---
  // Tet faces, boundary triangles and boundary edges are bucketed by their
  // smallest vertex, so everything one check compares lives in the buckets
  // of one vertex. Blocks of whole vertex ranges, split at about equal face
  // counts, sort their buckets and check them on their own threads; each
  // collects its errors in key order, and concatenated in block order they
  // are in global key order: boundary-triangle errors first, then
  // element-face errors.
  const std::size_t nv = mesh.points.size();
  Buckets<OwnedFace> faces = bucket_scatter<OwnedFace>(
      mesh.tets.size(), nv, blocks, [&mesh](std::size_t ti, auto&& out) {
        const auto& t = mesh.tets[ti];
        for (const auto& fi : kTetFaces) {
          const SplitFace f = split_face(t[fi[0]], t[fi[1]], t[fi[2]]);
          out(f.lo, OwnedFace{f.key, static_cast<std::uint32_t>(ti)});
        }
      });
  Buckets<std::uint64_t> boundary = bucket_scatter<std::uint64_t>(
      mesh.boundary_tris.size(), nv, blocks,
      [&mesh](std::size_t i, auto&& out) {
        const auto& b = mesh.boundary_tris[i];
        const SplitFace f = split_face(b[0], b[1], b[2]);
        out(f.lo, f.key);
      });
  Buckets<std::uint32_t> edges = bucket_scatter<std::uint32_t>(
      mesh.boundary_tris.size(), nv, blocks,
      [&mesh](std::size_t i, auto&& out) {
        const auto& t = mesh.boundary_tris[i];
        for (int k = 0; k < 3; ++k) {
          const std::uint32_t a = t[k], b = t[(k + 1) % 3];
          out(std::min(a, b), std::max(a, b));
        }
      });

  // Block k owns the vertices whose face buckets start in its share of
  // the faces; block 0 starts at vertex 0 and the last ends at nv.
  const std::size_t total = faces.items.size();
  std::vector<std::size_t> first_vertex(blocks + 1, nv);
  first_vertex[0] = 0;
  for (std::size_t k = 1; k < blocks; ++k) {
    first_vertex[k] = static_cast<std::size_t>(
        std::lower_bound(faces.start.begin(), faces.start.end() - 1,
                         k * total / blocks) -
        faces.start.begin());
  }
  std::vector<RangeReport> report(blocks);
  parallel_indexed_blocks(blocks, blocks, [&](std::size_t k, std::size_t,
                                              std::size_t) {
    RangeReport& r = report[k];
    std::size_t nonmanifold = 0;
    for (std::size_t vtx = first_vertex[k]; vtx < first_vertex[k + 1];
         ++vtx) {
      OwnedFace* const f0 = faces.items.data() + faces.start[vtx];
      OwnedFace* const f1 = faces.items.data() + faces.start[vtx + 1];
      std::uint64_t* const b0 = boundary.items.data() + boundary.start[vtx];
      std::uint64_t* const b1 =
          boundary.items.data() + boundary.start[vtx + 1];
      std::uint32_t* const e0 = edges.items.data() + edges.start[vtx];
      std::uint32_t* const e1 = edges.items.data() + edges.start[vtx + 1];
      std::sort(f0, f1, [](const OwnedFace& a, const OwnedFace& b) {
        return a.key < b.key;
      });
      std::sort(b0, b1);
      std::sort(e0, e1);

      const OwnedFace* f = f0;  // first face whose key is not below *b
      for (const std::uint64_t* b = b0; b < b1;) {
        const std::uint64_t* j = b + 1;
        while (j < b1 && *j == *b) ++j;
        if (j - b > 1) {
          r.boundary_errors.emplace_back("duplicate boundary triangle");
        }
        while (f < f1 && f->key < *b) ++f;
        if (f == f1 || f->key != *b) {
          r.boundary_errors.emplace_back(
              "boundary triangle is not a face of any element");
        }
        b = j;
      }

      // One pass over runs of equal keys: the run length is the number of
      // elements sharing the face, and every run joins its owners'
      // components.
      const std::uint64_t* b = b0;  // first boundary key not below f->key
      for (f = f0; f < f1;) {
        const OwnedFace* j = f + 1;
        for (; j < f1 && j->key == f->key; ++j) {
          components.unite(f->owner, j->owner);
        }
        if (j - f > 2) {
          r.face_errors.emplace_back("face shared by more than two elements");
        } else if (j - f == 1) {
          while (b < b1 && *b < f->key) ++b;
          if (b == b1 || *b != f->key) {
            r.face_errors.emplace_back(
                "exposed face missing from boundary_tris");
          }
        }
        f = j;
      }

      // Boundary edge manifoldness (informational): each edge on exactly
      // two boundary triangles.
      for (const std::uint32_t* e = e0; e < e1;) {
        const std::uint32_t* j = e + 1;
        while (j < e1 && *j == *e) ++j;
        if (j - e != 2) ++nonmanifold;
        e = j;
      }
    }
    r.nonmanifold_edges = nonmanifold;
  });
  for (RangeReport& r : report) {
    for (std::string& msg : r.boundary_errors) fail(std::move(msg));
  }
  for (RangeReport& r : report) {
    for (std::string& msg : r.face_errors) fail(std::move(msg));
    v.boundary_edges_nonmanifold += r.nonmanifold_edges;
  }
  std::vector<std::size_t> roots(blocks, 0);
  parallel_indexed_blocks(mesh.tets.size(), blocks,
                          [&](std::size_t k, std::size_t b, std::size_t e) {
                            std::size_t n = 0;
                            for (std::size_t i = b; i < e; ++i) {
                              n += components.is_root(i) ? 1 : 0;
                            }
                            roots[k] = n;
                          });
  for (const std::size_t c : roots) v.connected_components += c;

  v.ok = v.errors.empty();
  return v;
}

}  // namespace pi2m
