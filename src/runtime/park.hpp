// Per-thread parking for the adaptive idle policy.
//
// A ThreadParker is an eventcount for exactly one sleeper: the owning
// thread calls park(timeout); any other thread calls unpark(). The state
// machine (Empty -> Parked -> Empty, with Notified absorbing early wakes)
// guarantees no lost wake-up: an unpark() that races ahead of the matching
// park() leaves a token that makes the park() return immediately.
//
// Parks are always *timed* — the refiner re-checks its idle invariants
// (done flag, inbox, termination condition) on every wake, so a bounded
// park doubles as a liveness backstop: even if every wake signal were
// missed the system re-examines the world every timeout period.
//
// Implementation: a mutex + condition_variable guarding the state, in
// every build (sanitizer builds run the same parker as release builds).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace pi2m {

class alignas(64) ThreadParker {
 public:
  ThreadParker() = default;
  ThreadParker(const ThreadParker&) = delete;
  ThreadParker& operator=(const ThreadParker&) = delete;

  /// Blocks the owning thread for at most `timeout_us` microseconds, or
  /// until unpark(). Consumes a pending wake token and returns immediately
  /// if unpark() already happened. Returns true when woken by unpark()
  /// (possibly a token), false on timeout.
  bool park(std::uint64_t timeout_us);

  /// Wakes the owner if parked; otherwise leaves a token so the next
  /// park() returns immediately. Any thread may call this.
  void unpark();

 private:
  enum State : int { kEmpty = 0, kParked = 1, kNotified = 2 };

  std::mutex mutex_;
  std::condition_variable cv_;
  State state_ = kEmpty;  ///< guarded by mutex_
};

}  // namespace pi2m
