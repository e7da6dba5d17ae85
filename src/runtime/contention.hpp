// Contention managers (paper §5).
//
// A rollback means a thread attempted to acquire a vertex already owned by
// another thread. The contention manager (CM) decides what the rolled-back
// thread does next. Four schemes from the paper:
//
//  * Aggressive-CM — do nothing, retry greedily. Non-blocking; livelocks in
//    practice on high thread counts (paper Table 1).
//  * Random-CM — after r+ consecutive rollbacks sleep a random 1..r+ ms.
//    Non-blocking; livelocks are rare but possible (observed at 256 cores).
//  * Global-CM — blocked threads queue on one global FIFO Contention List;
//    a thread that completes s+ consecutive operations wakes the head.
//    Blocking => livelock-free; deadlock avoided by never blocking the last
//    active thread.
//  * Local-CM — per-thread Contention Lists plus the busy_wait/conflicting_id
//    handshake of paper Fig. 2, which provably breaks dependency cycles
//    (Lemmas 1 & 2): in any cycle at least one thread blocks and at least
//    one does not.
//
// All busy-waits yield (mandatory on the single-core reproduction host) and
// abort on the global done flag. Waited time is charged to the thread's
// contention overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "runtime/stats.hpp"

namespace pi2m {

enum class CmKind : std::uint8_t { Aggressive, Random, Global, Local };

/// The one spelling of each scheme ("aggressive", "random", "global",
/// "local"): CLI flag value, wire value, manifests and bench printouts.
const char* cm_name(CmKind k);
std::optional<CmKind> parse_cm_name(std::string_view s);

/// Shared context the CM consults while blocking.
struct CmContext {
  const std::atomic<bool>* done = nullptr;      ///< global stop flag
  std::atomic<int>* idle_threads = nullptr;     ///< threads parked on begging lists
  int nthreads = 1;
  /// Seed for randomized CM decisions (Random-CM backoff). 0 = seed from
  /// std::random_device (historical behaviour); non-zero makes the per-
  /// thread backoff streams reproducible across runs (fuzzing/replay).
  std::uint64_t seed = 0;
};

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  /// Called after every successfully completed operation.
  virtual void on_success(int tid) = 0;

  /// Called after a rollback caused by `conflicting` (-1 if unknown). May
  /// block the calling thread; blocked time is charged to stats.
  virtual void on_rollback(int tid, int conflicting, ThreadStats& stats) = 0;

  /// Wakes one blocked thread if any; called by threads about to idle on a
  /// begging list so system-wide progress can never stall (generalizes the
  /// paper's active-thread accounting of Global-CM to all schemes).
  virtual void wake_one() {}

  /// Wakes everyone (termination / livelock abort).
  virtual void wake_all() {}

  /// Number of threads currently blocked inside the CM.
  [[nodiscard]] virtual int blocked_count() const { return 0; }
};

/// Factory. `r_plus` and `s_plus` follow the paper defaults (5 and 10).
std::unique_ptr<ContentionManager> make_contention_manager(CmKind kind,
                                                           CmContext ctx,
                                                           int r_plus = 5,
                                                           int s_plus = 10);

}  // namespace pi2m
