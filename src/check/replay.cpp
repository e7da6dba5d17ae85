#include "check/replay.hpp"

#include <cstring>
#include <map>
#include <sstream>
#include <tuple>

#include "delaunay/operations.hpp"

namespace pi2m::check {

namespace {

/// Exact-position key: the raw bit patterns of (x, y, z). Positions are
/// recorded and replayed bit-for-bit, so bitwise equality is the right
/// notion (and avoids -0.0 == 0.0 aliasing two distinct keys).
using PosKey = std::array<std::uint64_t, 3>;

PosKey pos_key(const Vec3& p) {
  PosKey k;
  std::memcpy(&k[0], &p.x, 8);
  std::memcpy(&k[1], &p.y, 8);
  std::memcpy(&k[2], &p.z, 8);
  return k;
}

}  // namespace

ReplayResult replay_oplog(const Aabb& box, const std::vector<OpRecord>& log,
                          const ReplayOptions& opts) {
  ReplayResult res;
  DelaunayMesh mesh(box);
  InvariantAuditor auditor(mesh, opts.insphere_sample);
  OpScratch scratch;
  constexpr int kTid = 0;

  std::map<PosKey, VertexId> by_pos;
  CellId hint = any_alive_cell(mesh, 0);

  const auto fail_at = [&](std::size_t i, const std::string& what) {
    res.ok = false;
    res.failed_op = static_cast<std::int64_t>(i);
    std::ostringstream os;
    os << "op " << i << " (seq " << log[i].seq << ", "
       << (log[i].op == OpKind::Insert ? "insert" : "remove") << " at ("
       << log[i].point.x << ", " << log[i].point.y << ", " << log[i].point.z
       << ")): " << what;
    res.error = os.str();
  };

  for (std::size_t i = 0; i < log.size(); ++i) {
    const OpRecord& r = log[i];
    if (r.op == OpKind::Insert) {
      const OpResult op =
          insert_point(mesh, r.point, static_cast<VertexKind>(r.kind), hint,
                       kTid, scratch);
      // Single-threaded: Conflict/Stale are impossible, and a *committed*
      // recorded insert must commit again under any valid linearization.
      if (op.status != OpStatus::Success) {
        fail_at(i, "recorded insert did not apply (status " +
                       std::to_string(static_cast<int>(op.status)) + ")");
        return res;
      }
      by_pos.emplace(pos_key(r.point), op.new_vertex);
      if (!scratch.created.empty()) hint = scratch.created.front();
    } else {
      const auto it = by_pos.find(pos_key(r.point));
      if (it == by_pos.end()) {
        fail_at(i, "recorded removal of a vertex this replay never inserted");
        return res;
      }
      const OpResult op = remove_vertex(mesh, it->second, kTid, scratch);
      if (op.status != OpStatus::Success) {
        fail_at(i, "recorded removal did not apply (status " +
                       std::to_string(static_cast<int>(op.status)) + ")");
        return res;
      }
      by_pos.erase(it);
      if (!scratch.created.empty()) hint = scratch.created.front();
    }
    ++res.applied;

    if (opts.audit_every != 0 && res.applied % opts.audit_every == 0) {
      const AuditReport rep = auditor.audit_incremental();
      if (!rep.ok) {
        fail_at(i, "incremental audit failed: " + rep.errors.front());
        res.final_audit = rep;
        return res;
      }
    }
  }

  res.final_audit = auditor.audit_full();
  res.snapshot = snapshot_mesh(mesh);
  res.hash = snapshot_hash(res.snapshot);
  res.ok = res.final_audit.ok;
  if (!res.ok && res.error.empty()) {
    res.error = "final audit failed: " + (res.final_audit.errors.empty()
                                              ? std::string("(no detail)")
                                              : res.final_audit.errors.front());
  }
  return res;
}

}  // namespace pi2m::check
