#include "runtime/contention.hpp"

#include <algorithm>
#include <random>
#include <thread>

#include "support/common.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

/// Blocking a thread is only safe when at least one other thread remains
/// active (neither CM-blocked nor idle); otherwise the would-be waker may
/// never run (paper §5.3's active-thread rule, applied to all blocking CMs).
/// Blockers take their slot under a mutex, so blockers alone never exceed
/// nthreads - 1; a thread turning idle after this check is read can still
/// leave everyone blocked or idle, which the idle loop resolves by calling
/// wake_one (see Refiner::idle_protocol).
bool may_block(const CmContext& ctx, int currently_blocked) {
  const int idle =
      ctx.idle_threads ? ctx.idle_threads->load(std::memory_order_acquire) : 0;
  return currently_blocked + idle + 1 < ctx.nthreads;
}

class AggressiveCm final : public ContentionManager {
 public:
  void on_success(int) override {}
  void on_rollback(int, int, ThreadStats&) override {}
};

class RandomCm final : public ContentionManager {
 public:
  RandomCm(CmContext ctx, int r_plus)
      : ctx_(ctx), r_plus_(r_plus), consecutive_(ctx.nthreads) {
    for (auto& c : consecutive_) c.v = 0;
  }

  void on_success(int tid) override { consecutive_[tid].v = 0; }

  void on_rollback(int tid, int /*conflicting*/, ThreadStats& stats) override {
    if (++consecutive_[tid].v <= r_plus_) return;
    consecutive_[tid].v = 0;
    // Seeded per thread id when the context carries a seed, so fuzz runs can
    // reproduce the backoff stream; random_device otherwise (historical).
    thread_local std::mt19937 rng = [&] {
      if (ctx_.seed != 0) {
        std::seed_seq seq{static_cast<unsigned>(ctx_.seed),
                          static_cast<unsigned>(ctx_.seed >> 32),
                          static_cast<unsigned>(tid)};
        return std::mt19937(seq);
      }
      return std::mt19937(std::random_device{}());
    }();
    std::uniform_int_distribution<int> ms(1, r_plus_);
    telemetry::Span cm_span("cm.backoff", "cm");
    const double t0 = now_sec();
    const double deadline = t0 + ms(rng) * 1e-3;
    while (now_sec() < deadline &&
           !ctx_.done->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    stats.add_contention(now_sec() - t0);
  }

 private:
  struct alignas(64) PaddedInt {
    int v;
  };
  CmContext ctx_;
  int r_plus_;
  std::vector<PaddedInt> consecutive_;
};

class GlobalCm final : public ContentionManager {
 public:
  GlobalCm(CmContext ctx, int s_plus)
      : ctx_(ctx), s_plus_(s_plus), per_thread_(ctx.nthreads) {}

  void on_success(int tid) override {
    PerThread& me = per_thread_[tid];
    if (++me.successes < s_plus_) return;
    me.successes = 0;
    wake_one();
  }

  void on_rollback(int tid, int /*conflicting*/, ThreadStats& stats) override {
    PerThread& me = per_thread_[tid];
    me.successes = 0;
    if (!may_block(ctx_, blocked_.load(std::memory_order_acquire))) return;
    {
      // Admission is re-checked and taken under the CL mutex: two threads
      // that both passed the check above must not both take the last slot.
      std::lock_guard<std::mutex> lk(mutex_);
      if (!may_block(ctx_, blocked_.load(std::memory_order_acquire))) return;
      me.wait.store(true, std::memory_order_release);
      queue_.push_back(tid);
      blocked_.fetch_add(1, std::memory_order_acq_rel);
    }
    telemetry::Span cm_span("cm.wait", "cm");
    const double t0 = now_sec();
    while (me.wait.load(std::memory_order_acquire) &&
           !ctx_.done->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    blocked_.fetch_sub(1, std::memory_order_acq_rel);
    stats.add_contention(now_sec() - t0);
  }

  void wake_one() override {
    int victim = -1;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!queue_.empty()) {
        victim = queue_.front();
        queue_.pop_front();
      }
    }
    if (victim >= 0) {
      per_thread_[victim].wait.store(false, std::memory_order_release);
    }
  }

  void wake_all() override {
    std::lock_guard<std::mutex> lk(mutex_);
    while (!queue_.empty()) {
      per_thread_[queue_.front()].wait.store(false, std::memory_order_release);
      queue_.pop_front();
    }
  }

  [[nodiscard]] int blocked_count() const override {
    return blocked_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) PerThread {
    int successes = 0;
    std::atomic<bool> wait{false};
  };
  CmContext ctx_;
  int s_plus_;
  std::vector<PerThread> per_thread_;
  std::mutex mutex_;               // guards queue_ (the global CL)
  std::deque<int> queue_;
  std::atomic<int> blocked_{0};
};

// Local-CM: direct transcription of paper Fig. 2 with the busy_wait /
// conflicting_id protocol. The per-thread mutexes are locked in
// (max, min) id order as in the paper's pseudocode, which (together with
// the busy_wait check) yields Lemmas 1 and 2.
class LocalCm final : public ContentionManager {
 public:
  LocalCm(CmContext ctx, int s_plus)
      : ctx_(ctx), s_plus_(s_plus), per_thread_(ctx.nthreads) {}

  void on_success(int tid) override {
    PerThread& me = per_thread_[tid];
    me.conflicting_id.store(-1, std::memory_order_relaxed);
    if (++me.successes < s_plus_) return;
    me.successes = 0;
    wake_from_cl(tid);
  }

  void on_rollback(int tid, int conflicting, ThreadStats& stats) override {
    PerThread& me = per_thread_[tid];
    me.successes = 0;
    if (conflicting < 0 || conflicting >= ctx_.nthreads || conflicting == tid)
      return;
    me.conflicting_id.store(conflicting, std::memory_order_relaxed);
    if (!may_block(ctx_, blocked_.load(std::memory_order_acquire))) return;

    PerThread& other = per_thread_[conflicting];
    PerThread& first = per_thread_[std::max(tid, conflicting)];
    PerThread& second = per_thread_[std::min(tid, conflicting)];
    {
      // Admission is re-checked and taken under one mutex: two threads that
      // both passed the check above must not both take the last slot.
      std::lock_guard<std::mutex> admit(admit_mutex_);
      if (!may_block(ctx_, blocked_.load(std::memory_order_acquire))) return;
      {
        std::scoped_lock lk(first.mutex, second.mutex);
        // The thread we depend on has itself decided to block: blocking too
        // could close a dependency cycle, so we must not (paper Fig. 2c
        // lines 6-10; Lemma 1).
        if (other.busy_wait.load(std::memory_order_acquire)) return;
        me.busy_wait.store(true, std::memory_order_release);
      }
      {
        std::lock_guard<std::mutex> lk(other.cl_mutex);
        other.cl.push_back(tid);
      }
      blocked_.fetch_add(1, std::memory_order_acq_rel);
    }
    telemetry::Span cm_span("cm.wait", "cm");
    cm_span.set_arg("on", static_cast<std::uint64_t>(conflicting));
    const double t0 = now_sec();
    while (me.busy_wait.load(std::memory_order_acquire) &&
           !ctx_.done->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    blocked_.fetch_sub(1, std::memory_order_acq_rel);
    stats.add_contention(now_sec() - t0);
  }

  void wake_one() override {
    for (int t = 0; t < ctx_.nthreads; ++t) {
      if (wake_from_cl(t)) return;
    }
  }

  void wake_all() override {
    for (int t = 0; t < ctx_.nthreads; ++t) {
      while (wake_from_cl(t)) {
      }
    }
  }

  [[nodiscard]] int blocked_count() const override {
    return blocked_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) PerThread {
    int successes = 0;
    std::atomic<int> conflicting_id{-1};
    std::atomic<bool> busy_wait{false};
    std::mutex mutex;     // serializes the block/no-block decision (Fig. 2c)
    std::mutex cl_mutex;  // guards cl
    std::vector<int> cl;  // threads waiting on this thread
  };

  /// Pops the first waiter of thread t's CL and releases it. Note that a
  /// thread about to block must NOT flush its own CL (paper Fig. 4 shows
  /// the livelock that would cause); waiters are only released on progress.
  bool wake_from_cl(int t) {
    PerThread& owner = per_thread_[t];
    int victim = -1;
    {
      std::lock_guard<std::mutex> lk(owner.cl_mutex);
      if (!owner.cl.empty()) {
        victim = owner.cl.front();
        owner.cl.erase(owner.cl.begin());
      }
    }
    if (victim < 0) return false;
    per_thread_[victim].busy_wait.store(false, std::memory_order_release);
    return true;
  }

  CmContext ctx_;
  int s_plus_;
  std::vector<PerThread> per_thread_;
  std::mutex admit_mutex_;  // makes the may_block check + block one step
  std::atomic<int> blocked_{0};
};

}  // namespace

namespace {
constexpr const char* kCmNames[] = {"aggressive", "random", "global", "local"};
}  // namespace

const char* cm_name(CmKind k) { return kCmNames[static_cast<int>(k)]; }

std::optional<CmKind> parse_cm_name(std::string_view s) {
  for (int k = 0; k < 4; ++k) {
    if (s == kCmNames[k]) return static_cast<CmKind>(k);
  }
  return std::nullopt;
}

std::unique_ptr<ContentionManager> make_contention_manager(CmKind kind,
                                                           CmContext ctx,
                                                           int r_plus,
                                                           int s_plus) {
  PI2M_CHECK(ctx.done != nullptr, "CM context needs a done flag");
  switch (kind) {
    case CmKind::Aggressive:
      return std::make_unique<AggressiveCm>();
    case CmKind::Random:
      return std::make_unique<RandomCm>(ctx, r_plus);
    case CmKind::Global:
      return std::make_unique<GlobalCm>(ctx, s_plus);
    case CmKind::Local:
      return std::make_unique<LocalCm>(ctx, s_plus);
  }
  return nullptr;
}

}  // namespace pi2m
