// Sequential replayer for recorded kernel operation logs.
//
// Re-executes an oplog (check/oplog.hpp) single-threaded, in commit-sequence
// order, against a fresh mesh over the same virtual box. Because the
// sequence numbers are drawn while each operation holds its vertex locks,
// sequence order is a valid linearization of the concurrent run, and the
// Bowyer-Watson cavity of a point is a pure function of the current
// triangulation (exact predicates) — so the replay converges to the same
// simplicial complex, compared via canonical snapshots (check/snapshot.hpp).
//
// Caveat, documented rather than hidden: vertex removal breaks exact
// cospherical ties in the link re-triangulation by vertex timestamp.
// Timestamps are assigned at creation, from a counter distinct from the
// commit-sequence counter, so two concurrent *non-conflicting* inserts can
// have timestamp order opposite their sequence order. Replay then assigns
// them swapped timestamps, which can only matter if a later removal's link
// is exactly cospherical across those two vertices. Such a divergence is
// not silent — it surfaces as a snapshot mismatch pointing at the removal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/auditor.hpp"
#include "check/oplog.hpp"
#include "check/snapshot.hpp"
#include "geometry/vec3.hpp"

namespace pi2m::check {

struct ReplayOptions {
  /// Run an incremental audit every N applied operations (0 = only the
  /// final full audit).
  std::uint32_t audit_every = 0;
  /// Insphere sampling rate for the audits (see InvariantAuditor).
  std::uint32_t insphere_sample = 8;
};

struct ReplayResult {
  /// Every op applied cleanly and every audit passed.
  bool ok = false;
  std::string error;
  /// Index into the log of the op that failed to apply or first op after
  /// which an audit failed; -1 when ok (or the failure is global).
  std::int64_t failed_op = -1;
  std::size_t applied = 0;
  /// Canonical snapshot + hash of the replayed mesh (valid when every op
  /// applied, even if an audit failed).
  MeshSnapshot snapshot;
  std::uint64_t hash = 0;
  AuditReport final_audit;
};

/// Replays `log` over a fresh mesh on `box`. The box must be the same
/// virtual box the recording run used, or point location will fail.
ReplayResult replay_oplog(const Aabb& box, const std::vector<OpRecord>& log,
                          const ReplayOptions& opts = {});

}  // namespace pi2m::check
