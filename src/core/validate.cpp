#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geometry/tetra.hpp"
#include "predicates/predicates.hpp"
#include "support/parallel_for.hpp"

namespace pi2m {
namespace {

using FaceKey = std::array<std::uint32_t, 3>;

FaceKey face_key(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  FaceKey k{a, b, c};
  std::sort(k.begin(), k.end());
  return k;
}

constexpr int kTetFaces[4][3] = {{1, 3, 2}, {0, 2, 3}, {0, 3, 1}, {0, 1, 2}};

struct OwnedFace {
  FaceKey key;
  std::uint32_t owner;  ///< index of the tet the face belongs to
  bool operator<(const OwnedFace& o) const {
    return key != o.key ? key < o.key : owner < o.owner;
  }
};

/// Every tet face, in lexicographic (key, owner) order. A counting sort on
/// the smallest vertex (the key's first entry) does the bulk of the work;
/// each bucket then holds only the few faces around one vertex and is
/// sorted in place. Each tet block counts its faces per vertex; bucket v
/// takes block 0's faces first, then block 1's, ..., so the blocks scatter
/// in parallel and stably (tet order within a bucket, as a serial scatter
/// would). The buckets are then sorted in vertex ranges of about equal face
/// counts. The array is the same at any block count.
std::vector<OwnedFace> sorted_tet_faces(const TetMesh& mesh,
                                        std::size_t blocks) {
  const std::size_t nt = mesh.tets.size();
  const std::size_t nv = mesh.points.size();
  // at[k * nv + v]: block k's face count for vertex v, then its next slot.
  std::vector<std::size_t> at(blocks * nv, 0);
  parallel_indexed_blocks(nt, blocks, [&](std::size_t k, std::size_t b,
                                          std::size_t e) {
    std::size_t* count = at.data() + k * nv;
    for (std::size_t ti = b; ti < e; ++ti) {
      const auto& t = mesh.tets[ti];
      for (const auto& fi : kTetFaces) {
        ++count[std::min({t[fi[0]], t[fi[1]], t[fi[2]]})];
      }
    }
  });
  std::vector<std::size_t> start(nv + 1);
  std::size_t total = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    start[v] = total;
    for (std::size_t k = 0; k < blocks; ++k) {
      const std::size_t c = at[k * nv + v];
      at[k * nv + v] = total;
      total += c;
    }
  }
  start[nv] = total;

  std::vector<OwnedFace> faces(total);
  parallel_indexed_blocks(nt, blocks, [&](std::size_t k, std::size_t b,
                                          std::size_t e) {
    std::size_t* next = at.data() + k * nv;
    for (std::size_t ti = b; ti < e; ++ti) {
      const auto& t = mesh.tets[ti];
      for (const auto& fi : kTetFaces) {
        const FaceKey key = face_key(t[fi[0]], t[fi[1]], t[fi[2]]);
        faces[next[key[0]]++] = {key, static_cast<std::uint32_t>(ti)};
      }
    }
  });
  // Block k sorts the buckets that start in its share [b, e) of the faces.
  parallel_indexed_blocks(total, blocks, [&](std::size_t, std::size_t b,
                                             std::size_t e) {
    auto v = static_cast<std::size_t>(
        std::lower_bound(start.begin(), start.end() - 1, b) - start.begin());
    for (; v < nv && start[v] < e; ++v) {
      std::sort(faces.begin() + static_cast<std::ptrdiff_t>(start[v]),
                faces.begin() + static_cast<std::ptrdiff_t>(start[v + 1]));
    }
  });
  return faces;
}

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
  parallel_indexed_blocks(mesh.tets.size(), blocks, [&](std::size_t k,
                                                        std::size_t b,
                                                        std::size_t e) {
    Sanity& s = part[k];
    for (std::size_t i = b; i < e; ++i) {
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

  // --- face conformity ---
  // Both lists are in key order, the order the errors are reported in.
  const std::vector<OwnedFace> faces = sorted_tet_faces(mesh, blocks);
  std::vector<FaceKey> boundary;
  boundary.reserve(mesh.boundary_tris.size());
  for (const auto& b : mesh.boundary_tris) {
    boundary.push_back(face_key(b[0], b[1], b[2]));
  }
  std::sort(boundary.begin(), boundary.end());
  std::size_t f = 0;  // first face whose key is not below boundary[i]
  for (std::size_t i = 0; i < boundary.size();) {
    std::size_t j = i + 1;
    while (j < boundary.size() && boundary[j] == boundary[i]) ++j;
    if (j - i > 1) fail("duplicate boundary triangle");
    while (f < faces.size() && faces[f].key < boundary[i]) ++f;
    if (f == faces.size() || faces[f].key != boundary[i]) {
      fail("boundary triangle is not a face of any element");
    }
    i = j;
  }

  // One pass over runs of equal keys: the run length is the number of
  // elements sharing the face, and every run joins its owners' components.
  std::vector<std::uint32_t> parent(mesh.tets.size());
  for (std::uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::size_t b = 0;  // first boundary key not below the face key k
  for (std::size_t i = 0; i < faces.size();) {
    const FaceKey& k = faces[i].key;
    std::size_t j = i + 1;
    for (; j < faces.size() && faces[j].key == k; ++j) {
      parent[find(faces[j].owner)] = find(faces[i].owner);
    }
    if (j - i > 2) {
      fail("face shared by more than two elements");
    } else if (j - i == 1) {
      while (b < boundary.size() && boundary[b] < k) ++b;
      if (b == boundary.size() || boundary[b] != k) {
        fail("exposed face missing from boundary_tris");
      }
    }
    i = j;
  }
  for (std::uint32_t i = 0; i < parent.size(); ++i) {
    if (find(i) == i) ++v.connected_components;
  }

  // --- boundary edge manifoldness (informational) ---
  std::vector<std::uint64_t> edges;
  edges.reserve(3 * mesh.boundary_tris.size());
  for (const auto& t : mesh.boundary_tris) {
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t lo = std::min(t[i], t[(i + 1) % 3]);
      const std::uint64_t hi = std::max(t[i], t[(i + 1) % 3]);
      edges.push_back(lo << 32 | hi);
    }
  }
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i + 1;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    if (j - i != 2) ++v.boundary_edges_nonmanifold;
    i = j;
  }

  v.ok = v.errors.empty();
  return v;
}

}  // namespace pi2m
