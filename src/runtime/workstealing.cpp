#include "runtime/workstealing.hpp"

#include <algorithm>
#include <thread>

#include "support/common.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {


/// Fixed-capacity set of thread ids with CAS-claimed slots. The paper caps
/// every begging-list level at a handful of entries, so a linear scan over
/// the array is both wait-free (one bounded pass, no retry loop) and cache
/// cheap (the whole array is a few words).
class SlotArray {
 public:
  explicit SlotArray(int capacity)
      : slots_(static_cast<std::size_t>(std::max(capacity, 0))) {
    for (auto& s : slots_) s.store(kEmpty, std::memory_order_relaxed);
  }

  /// Claims the first empty slot for `tid`; false when all slots are taken.
  bool try_put(int tid) {
    for (auto& s : slots_) {
      int expected = kEmpty;
      if (s.load(std::memory_order_relaxed) == kEmpty &&
          s.compare_exchange_strong(expected, tid, std::memory_order_release,
                                    std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Claims and returns the first occupied slot's tid; -1 when empty.
  int try_take() {
    for (auto& s : slots_) {
      int tid = s.load(std::memory_order_acquire);
      if (tid != kEmpty &&
          s.compare_exchange_strong(tid, kEmpty, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
        return tid;
      }
    }
    return -1;
  }

  /// Removes `tid` if still present (it can occupy at most one slot).
  bool try_remove(int tid) {
    for (auto& s : slots_) {
      int expected = tid;
      if (s.load(std::memory_order_relaxed) == tid &&
          s.compare_exchange_strong(expected, kEmpty,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr int kEmpty = -1;
  std::vector<std::atomic<int>> slots_;
};

class RwsBalancer final : public LoadBalancer {
 public:
  explicit RwsBalancer(const Topology& topo)
      : LoadBalancer(topo), list_(topo.threads()) {}

  void enqueue_beggar(int tid) override {
    telemetry::instant("lb.beg", "lb");
    mark_begging(tid);
    // One slot per thread and a thread occupies at most one => a full pass
    // can only fail against transient claim races; retry until placed.
    while (!list_.try_put(tid)) std::this_thread::yield();
    count_.fetch_add(1, std::memory_order_release);
  }

  int pop_beggar(int giver, StealLevel* level) override {
    if (count_.load(std::memory_order_acquire) == 0) return -1;
    const int beggar = list_.try_take();
    if (beggar < 0) return -1;
    count_.fetch_sub(1, std::memory_order_release);
    if (level != nullptr) *level = classify(giver, beggar);
    return beggar;
  }

  void cancel(int tid) override {
    if (list_.try_remove(tid)) count_.fetch_sub(1, std::memory_order_release);
    clear_begging(tid);
  }

  [[nodiscard]] bool any_beggar() const override {
    return count_.load(std::memory_order_acquire) > 0;
  }

 private:
  SlotArray list_;
  std::atomic<int> count_{0};
};

class HwsBalancer final : public LoadBalancer {
 public:
  explicit HwsBalancer(const Topology& topo) : LoadBalancer(topo) {
    bl1_.reserve(static_cast<std::size_t>(topo.num_sockets()));
    for (int s = 0; s < topo.num_sockets(); ++s) {
      bl1_.emplace_back(topo.threads_per_socket() - 1);
    }
    const int sockets_per_blade =
        topo.threads_per_blade() / topo.threads_per_socket();
    bl2_.reserve(static_cast<std::size_t>(topo.num_blades()));
    bl3_.reserve(static_cast<std::size_t>(topo.num_blades()));
    for (int b = 0; b < topo.num_blades(); ++b) {
      bl2_.emplace_back(sockets_per_blade - 1);
      bl3_.emplace_back(1);
    }
  }

  void enqueue_beggar(int tid) override {
    telemetry::instant("lb.beg", "lb");
    mark_begging(tid);
    const int s = topo_.socket_of(tid);
    const int b = topo_.blade_of(tid);
    // Level selection per paper §6.1, expressed as claim-or-overflow: BL1
    // while the socket level has a free slot (capacity tps-1), then BL2
    // (capacity sockets_per_blade-1), then the blade's single BL3 slot.
    // The capacities sum to threads_per_blade, and each thread holds at
    // most one slot, so a full pass can only fail against transient claim
    // races; retry until placed.
    for (;;) {
      if (bl1_[static_cast<std::size_t>(s)].try_put(tid)) break;
      if (bl2_[static_cast<std::size_t>(b)].try_put(tid)) break;
      if (bl3_[static_cast<std::size_t>(b)].try_put(tid)) break;
      std::this_thread::yield();
    }
    count_.fetch_add(1, std::memory_order_release);
  }

  int pop_beggar(int giver, StealLevel* level) override {
    if (count_.load(std::memory_order_acquire) == 0) return -1;
    const int s = topo_.socket_of(giver);
    const int b = topo_.blade_of(giver);
    // HWS locality order: own socket, own blade, then machine-wide.
    int beggar = bl1_[static_cast<std::size_t>(s)].try_take();
    if (beggar < 0) beggar = bl2_[static_cast<std::size_t>(b)].try_take();
    for (std::size_t ob = 0; beggar < 0 && ob < bl3_.size(); ++ob) {
      beggar = bl3_[ob].try_take();
    }
    if (beggar < 0) return -1;
    count_.fetch_sub(1, std::memory_order_release);
    if (level != nullptr) *level = classify(giver, beggar);
    return beggar;
  }

  void cancel(int tid) override {
    // A thread only ever claims slots at its own socket/blade, so cancel
    // is O(levels): three small scans.
    const std::size_t s = static_cast<std::size_t>(topo_.socket_of(tid));
    const std::size_t b = static_cast<std::size_t>(topo_.blade_of(tid));
    if (bl1_[s].try_remove(tid) || bl2_[b].try_remove(tid) ||
        bl3_[b].try_remove(tid)) {
      count_.fetch_sub(1, std::memory_order_release);
    }
    clear_begging(tid);
  }

  [[nodiscard]] bool any_beggar() const override {
    return count_.load(std::memory_order_acquire) > 0;
  }

 private:
  std::vector<SlotArray> bl1_;  ///< per socket, capacity tps-1
  std::vector<SlotArray> bl2_;  ///< per blade, capacity sockets_per_blade-1
  std::vector<SlotArray> bl3_;  ///< one slot per blade
  std::atomic<int> count_{0};
};

}  // namespace

LoadBalancer::LoadBalancer(const Topology& topo)
    : topo_(topo),
      begging_(static_cast<std::size_t>(topo.threads())) {}

StealLevel LoadBalancer::classify(int giver, int beggar) const {
  if (topo_.same_socket(giver, beggar)) return StealLevel::IntraSocket;
  if (topo_.same_blade(giver, beggar)) return StealLevel::IntraBlade;
  return StealLevel::InterBlade;
}

const char* lb_name(LbKind k) { return k == LbKind::RWS ? "rws" : "hws"; }

std::optional<LbKind> parse_lb_name(std::string_view s) {
  if (s == "rws") return LbKind::RWS;
  if (s == "hws") return LbKind::HWS;
  return std::nullopt;
}

std::unique_ptr<LoadBalancer> make_load_balancer(LbKind kind,
                                                 const Topology& topo) {
  if (kind == LbKind::RWS) return std::make_unique<RwsBalancer>(topo);
  return std::make_unique<HwsBalancer>(topo);
}

}  // namespace pi2m
