#include "runtime/park.hpp"

#include <chrono>

namespace pi2m {

bool ThreadParker::park(std::uint64_t timeout_us) {
  std::unique_lock<std::mutex> lk(mutex_);
  if (state_ == kNotified) {
    state_ = kEmpty;
    return true;
  }
  state_ = kParked;
  cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
               [&] { return state_ == kNotified; });
  const bool notified = state_ == kNotified;
  state_ = kEmpty;
  return notified;
}

void ThreadParker::unpark() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    state_ = kNotified;
  }
  cv_.notify_one();
}

}  // namespace pi2m
