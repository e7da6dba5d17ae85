#include "check/oplog.hpp"
#include "delaunay/operations.hpp"
#include "predicates/predicates.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

int insphere_cell(const DelaunayMesh& mesh, CellId c, const Vec3& p) {
  const auto pos = mesh.positions(c);
  return insphere(pos[0], pos[1], pos[2], pos[3], p);
}

/// Index of the face of `nb` adjacent to cell `c`. Valid while `nb`'s face
/// vertices stay locked (no other thread may rewire a face it cannot lock).
int mirror_face(const DelaunayMesh& mesh, CellId nb, CellId c) {
  const Cell& cl = mesh.cell(nb);
  for (int j = 0; j < 4; ++j) {
    if (cl.n[j].load(std::memory_order_relaxed) == c) return j;
  }
  return -1;
}

/// Grows the conflict cavity from the locked, alive, conflicting cell `c0`,
/// validates it, and commits the Bowyer-Watson retriangulation. Assumes
/// c0's vertices are already locked and insphere(c0, p) > 0.
OpResult grow_and_commit(DelaunayMesh& mesh, const Vec3& p, VertexKind kind,
                         CellId c0, int tid, OpScratch& s) {
  OpResult res;
  // Membership in the cavity / outside-rind is tracked by stamping cells with
  // this operation's globally unique epoch (O(1) probe; see Cell::mark). A
  // cell is only ever stamped while this thread holds all of its vertices,
  // and the pre-lock probe tolerates foreign stamps because epochs never
  // repeat across threads or operations.
  const std::uint64_t in_cavity = s.cavity_mark();
  const std::uint64_t is_outside = s.outside_mark();
  s.cavity.push_back(c0);
  mesh.cell(c0).mark.store(in_cavity, std::memory_order_relaxed);
  s.bfs.push_back(c0);
  while (!s.bfs.empty()) {
    const CellId c = s.bfs.back();
    s.bfs.pop_back();
    const Cell& cl = mesh.cell(c);
    for (int i = 0; i < 4; ++i) {
      const CellId nb = cl.n[i].load(std::memory_order_acquire);
      const VertexId fa = cl.v[kFaceOf[i][0]];
      const VertexId fb = cl.v[kFaceOf[i][1]];
      const VertexId fc = cl.v[kFaceOf[i][2]];
      if (nb == kNoCell) {
        s.bfaces.push_back({c, i, kNoCell, -1, fa, fb, fc});
        continue;
      }
      const std::uint64_t nb_mark =
          mesh.cell(nb).mark.load(std::memory_order_relaxed);
      if (nb_mark == in_cavity) continue;
      if (nb_mark == is_outside) {
        s.bfaces.push_back({c, i, nb, mirror_face(mesh, nb, c), fa, fb, fc});
        continue;
      }
      std::int32_t held_by = -1;
      if (!s.lock_cell_vertices(mesh, nb, tid, held_by)) {
        // The work discarded here (grown cavity) is invisible to the
        // refiner's rollback accounting; expose its size on the timeline.
        telemetry::instant("bw.abort", "op", "cavity", s.cavity.size());
        s.unlock_all(mesh, tid);
        res.status = OpStatus::Conflict;
        res.conflicting_thread = held_by;
        return res;
      }
      PI2M_CHECK(mesh.cell_alive(nb),
                 "neighbour of a locked cell died (locking protocol bug)");
      if (insphere_cell(mesh, nb, p) > 0) {
        s.cavity.push_back(nb);
        mesh.cell(nb).mark.store(in_cavity, std::memory_order_relaxed);
        s.bfs.push_back(nb);
      } else {
        mesh.cell(nb).mark.store(is_outside, std::memory_order_relaxed);
        s.bfaces.push_back({c, i, nb, mirror_face(mesh, nb, c), fa, fb, fc});
      }
    }
  }

  // Validate: every new tetrahedron must be positively oriented, i.e. the
  // cavity is star-shaped around p.
  for (const OpScratch::BFace& bf : s.bfaces) {
    if (orient3d(mesh.position(bf.a), mesh.position(bf.b),
                 mesh.position(bf.c), p) <= 0) {
      s.unlock_all(mesh, tid);
      res.status = OpStatus::Failed;  // p degenerate against boundary
      return res;
    }
  }

  // --- commit ---
  telemetry::Span commit_span("bw.commit", "op");
  commit_span.set_arg("cells", s.bfaces.size());
  const VertexId pv =
      mesh.create_vertex(p, kind, tid, s.vblock);  // born locked
  s.locked.push_back(pv);

  // Each cavity-boundary edge is shared by exactly two boundary faces, so
  // every edge pairs up exactly once: O(1) hashed find-or-insert replaces the
  // former O(edges) scan per edge.
  s.edge_glue.begin(s.bfaces.size() * 3 / 2 + 1);
  for (const OpScratch::BFace& bf : s.bfaces) {
    const CellId nc = mesh.allocate_cell(s.freelist);
    Cell& cl = mesh.cell(nc);
    // Release stores: the unlocked locate walk snapshots v with acquire
    // atomic_refs (locate.cpp); pairing with these stores extends the
    // vertex-lock happens-before chain to the walker's position reads.
    const std::array<VertexId, 4> nv{bf.a, bf.b, bf.c, pv};
    for (int k = 0; k < 4; ++k) {
      std::atomic_ref(cl.v[k]).store(nv[k], std::memory_order_release);
    }
    cl.n[3].store(bf.outside, std::memory_order_release);
    if (bf.outside != kNoCell) {
      PI2M_CHECK(bf.mirror >= 0,
                 "cavity boundary face missing from outside cell");
      mesh.cell(bf.outside).n[bf.mirror].store(nc, std::memory_order_release);
    }
    // Internal gluing: new-cell face k (k<3) lies on edge (base minus k) + p.
    const std::array<VertexId, 3> base{bf.a, bf.b, bf.c};
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t key = edge_key(base[(k + 1) % 3], base[(k + 2) % 3]);
      auto* slot = s.edge_glue.find_or_insert(key, {nc, k});
      if (slot != nullptr) {
        cl.n[k].store(slot->value.cell, std::memory_order_release);
        mesh.cell(slot->value.cell)
            .n[slot->value.face]
            .store(nc, std::memory_order_release);
        s.edge_glue.consume(slot);
      }
    }
    for (VertexId v : {bf.a, bf.b, bf.c, pv}) {
      mesh.vertex(v).incident_hint.store(nc, std::memory_order_relaxed);
    }
    s.created.push_back(nc);
  }
  PI2M_CHECK(s.edge_glue.live() == 0,
             "unmatched cavity-boundary edge after re-fill");

  for (const CellId c : s.cavity) mesh.retire_cell(c, s.freelist);
  // Recorded before unlock: the sequence number drawn inside is only a valid
  // linearization order while the op still holds its vertex locks.
  check::record_commit(check::OpKind::Insert, p,
                       static_cast<std::uint8_t>(kind),
                       static_cast<std::uint32_t>(s.cavity.size()), tid);
  s.unlock_all(mesh, tid);

  res.status = OpStatus::Success;
  res.new_vertex = pv;
  return res;
}

}  // namespace

OpResult insert_point(DelaunayMesh& mesh, const Vec3& p, VertexKind kind,
                      CellId hint, int tid, OpScratch& s) {
  s.begin_op();
  OpResult res;
  if (!mesh.box().contains(p)) {
    res.status = OpStatus::Failed;
    return res;
  }

  // --- locate and pin the target cell ---
  CellId c0 = kNoCell;
  CellId start = hint;
  for (int attempt = 0; attempt < 4; ++attempt) {
    LocateResult loc = locate_point(mesh, p, start);
    if (!loc.ok) {
      // The hint died (or the walk was disrupted); restart from any alive
      // cell once per attempt.
      loc = locate_point(mesh, p, any_alive_cell(mesh, start));
      if (!loc.ok) {
        res.status = OpStatus::Stale;
        return res;
      }
    }
    std::int32_t held_by = -1;
    if (!s.lock_cell_vertices(mesh, loc.cell, tid, held_by)) {
      s.unlock_all(mesh, tid);
      res.status = OpStatus::Conflict;
      res.conflicting_thread = held_by;
      return res;
    }
    if (!mesh.cell_alive(loc.cell)) {
      // The cell died between the walk and the lock; re-walk from an alive
      // cell near where the last walk ended (restarting from the original
      // hint — possibly long dead — would retread the same ground).
      s.unlock_all(mesh, tid);
      start = any_alive_cell(mesh, loc.cell);
      continue;
    }
    // Containment re-check under locks (the unlocked walk is best-effort).
    const auto pos = mesh.positions(loc.cell);
    bool inside_cell = true;
    for (int i = 0; i < 4 && inside_cell; ++i) {
      inside_cell = orient3d(pos[kFaceOf[i][0]], pos[kFaceOf[i][1]],
                             pos[kFaceOf[i][2]], p) >= 0;
    }
    if (!inside_cell) {
      // The best-effort walk stopped one or more cells short (concurrent
      // restructuring): resume from where it stopped so retries make
      // progress instead of re-walking from the stale hint.
      s.unlock_all(mesh, tid);
      start = loc.cell;
      continue;
    }
    c0 = loc.cell;
    break;
  }
  if (c0 == kNoCell) {
    res.status = OpStatus::Stale;
    return res;
  }

  if (insphere_cell(mesh, c0, p) <= 0) {
    // p coincides with (or is cospherical-degenerate against) an existing
    // vertex of the containing cell: nothing sensible to insert.
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Failed;
    return res;
  }
  return grow_and_commit(mesh, p, kind, c0, tid, s);
}

OpResult insert_point_in_conflict(DelaunayMesh& mesh, const Vec3& p,
                                  VertexKind kind, CellId conflict,
                                  std::uint32_t conflict_gen, int tid,
                                  OpScratch& s) {
  s.begin_op();
  OpResult res;
  if (!mesh.box().contains(p)) {
    res.status = OpStatus::Failed;
    return res;
  }
  std::int32_t held_by = -1;
  if (!s.lock_cell_vertices(mesh, conflict, tid, held_by)) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Conflict;
    res.conflicting_thread = held_by;
    return res;
  }
  if (mesh.cell_gen(conflict) != conflict_gen) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Stale;  // the cell changed under the caller
    return res;
  }
  if (insphere_cell(mesh, conflict, p) <= 0) {
    s.unlock_all(mesh, tid);
    res.status = OpStatus::Failed;  // caller's conflict claim was wrong
    return res;
  }
  return grow_and_commit(mesh, p, kind, conflict, tid, s);
}

}  // namespace pi2m
