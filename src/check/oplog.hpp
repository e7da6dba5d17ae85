// Operation-log recorder for the speculative Bowyer-Watson kernel.
//
// Motivation: a racy interleaving that corrupts adjacency in a concurrent
// refine run is nondeterministic and nearly impossible to reproduce from a
// failing test alone. The recorder captures every *committed* insert/remove
// — point, vertex kind, refinement rule, cavity size, committing thread and
// a global commit sequence number — so the run can later be re-executed
// sequentially (see check/replay.hpp) and audited incrementally.
//
// Why replay is faithful: every cell an operation reads or writes (the
// cavity plus its rejected-outside rind) is vertex-locked for the whole
// operation, so two concurrently committed operations either conflict (and
// the locks order their commit-sequence draws) or touch disjoint cells (and
// commute exactly). Re-applying the log in sequence order is therefore a
// valid linearization of the concurrent execution and reproduces the same
// triangulation (up to cell/vertex ids — compared via the canonical
// snapshot in check/snapshot.hpp).
//
// Gating mirrors telemetry: with no active recording session the hook is
// one relaxed atomic load and a predictable branch.
//
// Threading contract: begin()/end() must not race with commits (call from
// the orchestrating thread before spawning / after joining workers).
// Recording itself is fully concurrent — each thread appends to its own
// buffer; only the sequence counter is shared, and it is drawn while the
// operation still holds its vertex locks, which is what makes the sequence
// a valid linearization order.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/vec3.hpp"

namespace pi2m::check {

enum class OpKind : std::uint8_t { Insert = 0, Remove = 1 };

/// One committed kernel operation. For Insert, `point` is the inserted
/// point; for Remove it is the position of the removed vertex (positions
/// are immutable and unique among alive vertices, so the replayer resolves
/// them back to vertex ids exactly).
struct OpRecord {
  Vec3 point;
  std::uint64_t seq = 0;     ///< global commit order (drawn under locks)
  std::uint32_t cavity = 0;  ///< cells retired by the operation
  std::int32_t tid = -1;     ///< committing thread
  OpKind op = OpKind::Insert;
  std::uint8_t kind = 0;     ///< VertexKind of the inserted/removed vertex
  std::uint8_t rule = 0;     ///< refinement rule (0 = none/direct kernel)
};

// --- session control --------------------------------------------------------

/// Opens a recording session: clears all buffers, resets the sequence
/// counter and enables the commit hook.
void begin();

/// Closes the session: the hook goes quiet, buffered records stay readable.
void end();

/// One merged view of every buffered record, sorted by commit sequence.
/// Requires recording threads to have quiesced (joined, or session ended).
std::vector<OpRecord> snapshot();

/// Number of buffered records (post-end or quiesced).
std::size_t record_count();

/// Binary save/load of a log (the core of a replay bundle). Format:
/// "P2MOPLOG" magic, u32 version, u64 count, packed little-endian records.
bool save_oplog(const std::vector<OpRecord>& log, const std::string& path);
std::optional<std::vector<OpRecord>> load_oplog(const std::string& path,
                                                std::string* error = nullptr);

// --- hot-path hooks --------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_recording;
void record_slow(OpKind op, const Vec3& p, std::uint8_t kind,
                 std::uint32_t cavity, int tid);
std::uint8_t& current_rule_slot();
}  // namespace detail

/// True while a recording session is open (the run-time gate).
inline bool active() {
  return detail::g_recording.load(std::memory_order_relaxed);
}

/// Commit hook. MUST be called while the operation still holds its vertex
/// locks (i.e. before the unlock in the commit path): the sequence number
/// drawn inside is only a valid linearization order under that condition.
inline void record_commit(OpKind op, const Vec3& p, std::uint8_t kind,
                          std::uint32_t cavity, int tid) {
  if (active()) detail::record_slow(op, p, kind, cavity, tid);
}

/// Tags subsequent commits on this thread with a refinement rule (the
/// delaunay kernel does not know which rule triggered it; the refiner does).
inline void set_current_rule(std::uint8_t rule) {
  if (active()) detail::current_rule_slot() = rule;
}

}  // namespace pi2m::check
