#include <algorithm>
#include <cmath>

#include "check/oplog.hpp"
#include "delaunay/local_dt.hpp"
#include "delaunay/operations.hpp"
#include "geometry/tetra.hpp"
#include "predicates/predicates.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

/// Unlocks (and unrecords) every vertex locked after position `base`.
void unlock_from(DelaunayMesh& mesh, int tid, OpScratch& s, std::size_t base) {
  for (std::size_t i = base; i < s.locked.size(); ++i) {
    mesh.unlock_vertex(s.locked[i], tid);
  }
  s.locked.resize(base);
}

bool cell_has_vertex(const Cell& c, VertexId v) {
  return c.v[0] == v || c.v[1] == v || c.v[2] == v || c.v[3] == v;
}

}  // namespace

OpResult remove_vertex(DelaunayMesh& mesh, VertexId pv, int tid,
                       OpScratch& s) {
  s.begin_op();
  OpResult res;

  std::int32_t held_by = -1;
  if (!s.lock_vertex(mesh, pv, tid, held_by)) {
    res.status = OpStatus::Conflict;
    res.conflicting_thread = held_by;
    return res;
  }
  Vertex& vp = mesh.vertex(pv);
  if (vp.dead.load(std::memory_order_acquire) || vp.kind == VertexKind::Box) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Failed;
    return res;
  }

  // --- pin one cell incident to pv ---
  CellId c0 = kNoCell;
  CellId candidate = vp.incident_hint.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < 4 && c0 == kNoCell; ++attempt) {
    if (candidate == kNoCell || candidate >= mesh.cell_slot_count() ||
        !mesh.cell_alive(candidate)) {
      const LocateResult loc =
          locate_point(mesh, mesh.position(pv), any_alive_cell(mesh, candidate));
      if (!loc.ok) break;
      candidate = loc.cell;
    }
    const std::size_t base = s.locked.size();
    if (!s.lock_cell_vertices(mesh, candidate, tid, held_by)) {
      s.unlock_all(mesh, tid);
      res.status = OpStatus::Conflict;
      res.conflicting_thread = held_by;
      return res;
    }
    if (mesh.cell_alive(candidate) &&
        cell_has_vertex(mesh.cell(candidate), pv)) {
      c0 = candidate;
      break;
    }
    unlock_from(mesh, tid, s, base);
    // Walk to pv's position for the next attempt.
    const LocateResult loc =
        locate_point(mesh, mesh.position(pv), any_alive_cell(mesh, candidate));
    candidate = loc.ok ? loc.cell : kNoCell;
    if (candidate == kNoCell) break;
  }
  if (c0 == kNoCell) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Stale;
    return res;
  }

  // --- gather the ball B(pv), locking every touched vertex ---
  // Ball membership is O(1) via the epoch-stamped cell marks (see
  // Cell::mark); every stamped cell is vertex-locked by this thread.
  const std::uint64_t in_ball = s.cavity_mark();
  s.cavity.push_back(c0);  // cavity doubles as the ball container here
  mesh.cell(c0).mark.store(in_ball, std::memory_order_relaxed);
  s.bfs.push_back(c0);
  while (!s.bfs.empty()) {
    const CellId c = s.bfs.back();
    s.bfs.pop_back();
    const Cell& cl = mesh.cell(c);
    int ip = -1;
    for (int i = 0; i < 4; ++i) {
      if (cl.v[i] == pv) ip = i;
    }
    PI2M_CHECK(ip >= 0, "ball cell lost the removed vertex");
    for (int i = 0; i < 4; ++i) {
      if (i == ip) {
        // The face opposite pv is a boundary face of the ball. Its outside
        // neighbour can never itself contain pv (two cells with the same
        // vertex set would coincide), so it survives the commit; record the
        // mirror face index now while its adjacency is pinned by our locks.
        const CellId out = cl.n[i].load(std::memory_order_acquire);
        int mirror = -1;
        if (out != kNoCell) {
          const Cell& ol = mesh.cell(out);
          for (int j = 0; j < 4; ++j) {
            if (ol.n[j].load(std::memory_order_relaxed) == c) mirror = j;
          }
        }
        s.bfaces.push_back({c, i, out, mirror, cl.v[kFaceOf[i][0]],
                            cl.v[kFaceOf[i][1]], cl.v[kFaceOf[i][2]]});
        continue;
      }
      const CellId nb = cl.n[i].load(std::memory_order_acquire);
      if (nb == kNoCell) {
        // A face containing pv lies on the hull: pv is effectively a hull
        // vertex; refuse the removal.
        s.unlock_all(mesh, tid);
        res.status = OpStatus::Failed;
        return res;
      }
      if (mesh.cell(nb).mark.load(std::memory_order_relaxed) == in_ball)
        continue;
      if (!s.lock_cell_vertices(mesh, nb, tid, held_by)) {
        // Partially-gathered ball discarded: expose its size (see insert.cpp).
        telemetry::instant("bw.abort", "op", "cavity", s.cavity.size());
        s.unlock_all(mesh, tid);
        res.status = OpStatus::Conflict;
        res.conflicting_thread = held_by;
        return res;
      }
      PI2M_CHECK(mesh.cell_alive(nb) && cell_has_vertex(mesh.cell(nb), pv),
                 "ball neighbour inconsistent (locking protocol bug)");
      s.cavity.push_back(nb);
      mesh.cell(nb).mark.store(in_ball, std::memory_order_relaxed);
      s.bfs.push_back(nb);
    }
  }

  // --- link vertices, ordered by global insertion timestamp ---
  std::vector<VertexId> link;
  for (const CellId c : s.cavity) {
    for (int i = 0; i < 4; ++i) {
      const VertexId v = mesh.cell(c).v[i];
      if (v != pv) link.push_back(v);
    }
  }
  std::sort(link.begin(), link.end());
  link.erase(std::unique(link.begin(), link.end()), link.end());
  std::sort(link.begin(), link.end(), [&](VertexId a, VertexId b) {
    return mesh.vertex(a).timestamp < mesh.vertex(b).timestamp;
  });

  std::vector<Vec3> pts;
  pts.reserve(link.size());
  for (const VertexId v : link) pts.push_back(mesh.position(v));
  // Global id -> local DT index, O(log n) per lookup (`link` itself is
  // timestamp-ordered, so a parallel id-sorted view is needed).
  std::vector<std::pair<VertexId, int>> local_of_global(link.size());
  for (std::size_t i = 0; i < link.size(); ++i) {
    local_of_global[i] = {link[i], 4 + static_cast<int>(i)};
  }
  std::sort(local_of_global.begin(), local_of_global.end());
  auto local_index = [&](VertexId v) {
    const auto it = std::lower_bound(local_of_global.begin(),
                                     local_of_global.end(),
                                     std::make_pair(v, 0));
    return it->second;
  };

  static thread_local LocalDelaunay dt;
  dt.rebuild(pts);
  if (!dt.ok()) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Failed;
    return res;
  }

  // --- select the local tets that tile the ball cavity ---
  s.triple_index.begin(s.bfaces.size());  // sorted triple -> bface idx
  for (std::size_t bi = 0; bi < s.bfaces.size(); ++bi) {
    std::array<int, 3> key{local_index(s.bfaces[bi].a),
                           local_index(s.bfaces[bi].b),
                           local_index(s.bfaces[bi].c)};
    std::sort(key.begin(), key.end());
    if (s.triple_index.find_or_insert(key, static_cast<int>(bi)) != nullptr) {
      // Two ball cells share the same opposite face: degenerate ball.
      s.unlock_all(mesh, tid);
      res.status = OpStatus::Failed;
      return res;
    }
  }

  std::vector<char> inside(dt.tets().size(), 0);
  std::vector<int> stack;
  bool extract_ok = true;
  for (const OpScratch::BFace& bf : s.bfaces) {
    const int ti = dt.find_tet_with_face(local_index(bf.a), local_index(bf.b),
                                         local_index(bf.c));
    if (ti < 0) {
      extract_ok = false;
      break;
    }
    if (!inside[static_cast<std::size_t>(ti)]) {
      inside[static_cast<std::size_t>(ti)] = 1;
      stack.push_back(ti);
    }
  }
  std::size_t walls = 0;
  while (extract_ok && !stack.empty()) {
    const int ti = stack.back();
    stack.pop_back();
    const LocalDelaunay::Tet& t = dt.tets()[static_cast<std::size_t>(ti)];
    for (int k = 0; k < 4; ++k) {
      if (LocalDelaunay::is_aux(t.v[k])) {
        extract_ok = false;  // cavity fill leaked to the auxiliary hull
        break;
      }
    }
    for (int f = 0; extract_ok && f < 4; ++f) {
      std::array<int, 3> key{t.v[kFaceOf[f][0]], t.v[kFaceOf[f][1]],
                             t.v[kFaceOf[f][2]]};
      std::sort(key.begin(), key.end());
      if (s.triple_index.find(key) != nullptr) {
        ++walls;
        continue;
      }
      const int nb = t.n[f];
      if (nb < 0) {
        extract_ok = false;
        break;
      }
      if (!inside[static_cast<std::size_t>(nb)]) {
        inside[static_cast<std::size_t>(nb)] = 1;
        stack.push_back(nb);
      }
    }
  }
  if (extract_ok && walls != s.bfaces.size()) extract_ok = false;

  // Volume validation: the selected tets must tile the ball exactly.
  if (extract_ok) {
    double ball_vol = 0.0;
    for (const CellId c : s.cavity) {
      const auto p = mesh.positions(c);
      ball_vol += signed_volume(p[0], p[1], p[2], p[3]);
    }
    double fill_vol = 0.0;
    for (std::size_t ti = 0; ti < dt.tets().size(); ++ti) {
      if (!inside[ti]) continue;
      const LocalDelaunay::Tet& t = dt.tets()[ti];
      fill_vol += signed_volume(dt.point(t.v[0]), dt.point(t.v[1]),
                                dt.point(t.v[2]), dt.point(t.v[3]));
    }
    if (std::fabs(fill_vol - ball_vol) > 1e-9 * std::fabs(ball_vol)) {
      extract_ok = false;
    }
  }
  if (!extract_ok) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Failed;
    return res;
  }

  // --- commit ---
  // Hashed face pairing: interior faces match exactly twice across the new
  // cells; the unmatched remainder is exactly the ball boundary.
  telemetry::Span commit_span("bw.commit", "op");
  commit_span.set_arg("cells", s.cavity.size());
  std::size_t n_new = 0;
  for (std::size_t ti = 0; ti < dt.tets().size(); ++ti) {
    if (inside[ti]) ++n_new;
  }
  s.face_glue.begin(4 * n_new);
  for (std::size_t ti = 0; ti < dt.tets().size(); ++ti) {
    if (!inside[ti]) continue;
    const LocalDelaunay::Tet& t = dt.tets()[ti];
    const CellId nc = mesh.allocate_cell(s.freelist);
    Cell& cl = mesh.cell(nc);
    for (int k = 0; k < 4; ++k) {
      // Release store: the unlocked locate walk reads v through acquire
      // atomic_refs (see locate.cpp), and the release pairs its reads with
      // the vertex-lock chain that ordered the vertices' position writes.
      std::atomic_ref(cl.v[k]).store(link[static_cast<std::size_t>(t.v[k] - 4)],
                                     std::memory_order_release);
    }
    for (int k = 0; k < 4; ++k) {
      cl.n[k].store(kNoCell, std::memory_order_relaxed);
      mesh.vertex(cl.v[k]).incident_hint.store(nc, std::memory_order_relaxed);
    }
    s.created.push_back(nc);
    for (int f = 0; f < 4; ++f) {
      std::array<VertexId, 3> key{cl.v[kFaceOf[f][0]], cl.v[kFaceOf[f][1]],
                                  cl.v[kFaceOf[f][2]]};
      std::sort(key.begin(), key.end());
      auto* slot = s.face_glue.find_or_insert(key, {nc, f});
      if (slot != nullptr) {
        cl.n[f].store(slot->value.cell, std::memory_order_release);
        mesh.cell(slot->value.cell)
            .n[slot->value.face]
            .store(nc, std::memory_order_release);
        s.face_glue.consume(slot);
      }
    }
  }
  // Remaining open faces are exactly the ball boundary: wire them to the
  // outside cells recorded in bfaces.
  for (const OpScratch::BFace& bf : s.bfaces) {
    std::array<VertexId, 3> key{bf.a, bf.b, bf.c};
    std::sort(key.begin(), key.end());
    auto* slot = s.face_glue.find(key);
    PI2M_CHECK(slot != nullptr,
               "ball boundary face missing after re-triangulation");
    const auto [nc, f] = slot->value;
    mesh.cell(nc).n[f].store(bf.outside, std::memory_order_release);
    if (bf.outside != kNoCell) {
      PI2M_CHECK(bf.mirror >= 0, "outside cell lost the shared ball face");
      mesh.cell(bf.outside).n[bf.mirror].store(nc, std::memory_order_release);
    }
    s.face_glue.consume(slot);
  }
  PI2M_CHECK(s.face_glue.live() == 0,
             "unmatched faces after ball re-triangulation");

  for (const CellId c : s.cavity) mesh.retire_cell(c, s.freelist);
  vp.dead.store(true, std::memory_order_release);
  // Recorded before unlock: the sequence number drawn inside is only a valid
  // linearization order while the op still holds its vertex locks.
  check::record_commit(check::OpKind::Remove, mesh.position(pv),
                       static_cast<std::uint8_t>(vp.kind),
                       static_cast<std::uint32_t>(s.cavity.size()), tid);
  s.unlock_all(mesh, tid);

  res.status = OpStatus::Success;
  res.new_vertex = kNoVertex;
  return res;
}

}  // namespace pi2m
