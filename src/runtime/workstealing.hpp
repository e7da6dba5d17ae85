// Begging-list load balancers (paper §4.4 and §6.1).
//
// An idle thread advertises itself on a Begging List (BL); a working thread
// that completes an operation and has enough poor elements hands some to
// the first advertised beggar. Two schemes:
//
//  * RWS — the paper's baseline: one global begging list.
//  * HWS — Hierarchical Work Stealing: three levels. BL1 is shared by the
//    threads of one (virtual) socket and holds at most
//    threads_per_socket-1 beggars; BL2 by the sockets of one blade
//    (at most sockets_per_blade-1); BL3 is machine-wide (at most one
//    beggar per blade). Givers serve BL1 of their own socket first, then
//    BL2 of their blade, then BL3, which keeps stolen work local and
//    reduces inter-blade traffic (paper Fig. 5b).
//
// Each level is a fixed-capacity array of atomic tid slots. The paper's
// occupancy caps (threads_per_socket-1 / sockets_per_blade-1 /
// one-per-blade) make the arrays small; a beggar claims an empty slot with
// one CAS, a giver claims a beggar with one CAS, and cancel is an
// O(levels) scan over the thread's own slots. Level capacities sum to
// threads_per_blade, so a begging thread always finds a slot in its own
// blade.
//
// The actual blocking loop lives in the refiner (it must also watch its
// inbox and the done flag); the balancer only manages membership, the
// per-thread wake flags, begging-state tokens, and steal-locality
// classification.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/topology.hpp"

namespace pi2m {

enum class LbKind : std::uint8_t { RWS, HWS };

const char* to_string(LbKind k);

/// Locality of a work transfer, measured against the virtual topology.
enum class StealLevel : std::uint8_t { IntraSocket = 0, IntraBlade = 1, InterBlade = 2 };

class LoadBalancer {
 public:
  explicit LoadBalancer(const Topology& topo);
  virtual ~LoadBalancer() = default;

  /// Registers `tid` as idle. The caller then waits on work_flag(tid)
  /// (spin / park — see the refiner's idle protocol).
  virtual void enqueue_beggar(int tid) = 0;

  /// Pops the most local beggar for `giver`; -1 when none. Fills `level`
  /// with the transfer locality.
  virtual int pop_beggar(int giver, StealLevel* level) = 0;

  /// Removes `tid` from the lists if still present (idle loop aborted) and
  /// clears its begging token.
  virtual void cancel(int tid) = 0;

  /// True while any thread is registered as begging.
  [[nodiscard]] virtual bool any_beggar() const = 0;

  /// True from enqueue_beggar(tid) until that thread's own cancel(tid) —
  /// popping a beggar does NOT clear it. A giver that claimed `tid` via
  /// pop_beggar checks this before handing work: false means the beggar
  /// already left its idle loop (done flag, work from another giver), so
  /// the giver keeps the batch instead of stranding it (the lost-wakeup
  /// window of the old protocol).
  [[nodiscard]] bool still_begging(int tid) const {
    return begging_[tid].flag.load(std::memory_order_acquire);
  }

  /// Set by the giver after filling the beggar's inbox; cleared by the
  /// beggar on wake-up.
  std::atomic<bool>& work_flag(int tid) { return flags_[tid].flag; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

 protected:
  [[nodiscard]] StealLevel classify(int giver, int beggar) const;
  void mark_begging(int tid) {
    begging_[tid].flag.store(true, std::memory_order_release);
  }
  void clear_begging(int tid) {
    begging_[tid].flag.store(false, std::memory_order_release);
  }

  Topology topo_;

 private:
  struct alignas(64) Flag {
    std::atomic<bool> flag{false};
  };
  std::vector<Flag> flags_;
  std::vector<Flag> begging_;
};

std::unique_ptr<LoadBalancer> make_load_balancer(LbKind kind,
                                                 const Topology& topo);

}  // namespace pi2m
