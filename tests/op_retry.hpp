// Retry-until-committed helper for the concurrent kernel tests.
//
// A speculative operation that loses a vertex lock returns Conflict (or
// Stale after concurrent restructuring) and leaves the mesh untouched. The
// stress tests retry such an operation until it commits or fails for good,
// so how many operations complete never depends on how the threads were
// scheduled; they then assert exact post-conditions instead of
// timing-calibrated success floors.
#pragma once

#include <chrono>
#include <thread>

#include "delaunay/operations.hpp"

namespace pi2m::test {

/// Hang guard for one stress test: far beyond any healthy run, even under
/// sanitizers on an oversubscribed host.
inline constexpr std::chrono::seconds kHangGuard{300};

/// Runs `op` until it returns Success or Failed, yielding between
/// attempts. Past `deadline` the last transient result (Conflict or Stale)
/// is returned instead, which the caller reports as a hang.
template <class Op>
OpResult retry_until_done(Op&& op,
                          std::chrono::steady_clock::time_point deadline) {
  while (true) {
    const OpResult r = op();
    if (r.status == OpStatus::Success || r.status == OpStatus::Failed) {
      return r;
    }
    if (std::chrono::steady_clock::now() > deadline) return r;
    std::this_thread::yield();
  }
}

/// Live vertices other than the eight virtual-box corners.
inline std::size_t live_inner_vertices(const DelaunayMesh& mesh) {
  std::size_t n = 0;
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const Vertex& vx = mesh.vertex(v);
    if (!vx.dead.load() && vx.kind != VertexKind::Box) ++n;
  }
  return n;
}

}  // namespace pi2m::test
