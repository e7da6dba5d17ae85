#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sizing.hpp"
#include "core/spatial_grid.hpp"
#include "runtime/contention.hpp"
#include "runtime/mpsc_inbox.hpp"
#include "runtime/park.hpp"
#include "runtime/stats.hpp"
#include "runtime/topology.hpp"
#include "runtime/workstealing.hpp"
#include "telemetry/collectors.hpp"

namespace pi2m {
namespace {

// --- topology -----------------------------------------------------------

TEST(Topology, BlacklightLayout) {
  const Topology t(32, {8, 2});
  EXPECT_EQ(t.threads_per_socket(), 8);
  EXPECT_EQ(t.threads_per_blade(), 16);
  EXPECT_EQ(t.num_sockets(), 4);
  EXPECT_EQ(t.num_blades(), 2);
  EXPECT_EQ(t.socket_of(0), 0);
  EXPECT_EQ(t.socket_of(7), 0);
  EXPECT_EQ(t.socket_of(8), 1);
  EXPECT_EQ(t.blade_of(15), 0);
  EXPECT_EQ(t.blade_of(16), 1);
  EXPECT_TRUE(t.same_socket(0, 7));
  EXPECT_FALSE(t.same_socket(7, 8));
  EXPECT_TRUE(t.same_blade(7, 8));
  EXPECT_FALSE(t.same_blade(15, 16));
}

TEST(Topology, PartialLastSocket) {
  const Topology t(10, {4, 2});
  EXPECT_EQ(t.num_sockets(), 3);
  EXPECT_EQ(t.num_blades(), 2);
}

TEST(Topology, RefusesSpecWhoseProductOverflows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 65536 * 65536 wraps to 0 in int and would become a divisor.
  EXPECT_DEATH(Topology(2, {65536, 65536}), "too large");
  EXPECT_DEATH(Topology(2, {46341, 46341}), "too large");
  const Topology t(2, {256, 256});
  EXPECT_EQ(t.threads_per_blade(), 65536);
}

// --- contention managers ------------------------------------------------

struct CmFixture {
  std::atomic<bool> done{false};
  std::atomic<int> idle{0};
  ThreadStats stats;

  CmContext ctx(int n) {
    CmContext c;
    c.done = &done;
    c.idle_threads = &idle;
    c.nthreads = n;
    return c;
  }
};

TEST(ContentionManager, AggressiveNeverBlocks) {
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Aggressive, f.ctx(4));
  for (int i = 0; i < 100; ++i) cm->on_rollback(0, 1, f.stats);
  EXPECT_EQ(cm->blocked_count(), 0);
  EXPECT_EQ(f.stats.contention_ns.load(), 0u);
}

TEST(ContentionManager, RandomSleepsAfterRPlusRollbacks) {
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Random, f.ctx(4), /*r_plus=*/3);
  for (int i = 0; i < 3; ++i) cm->on_rollback(0, 1, f.stats);
  EXPECT_EQ(f.stats.contention_ns.load(), 0u);  // not yet over the limit
  cm->on_rollback(0, 1, f.stats);               // 4th consecutive: sleeps
  EXPECT_GT(f.stats.contention_ns.load(), 0u);
  // Success resets the streak.
  cm->on_success(0);
  const auto before = f.stats.contention_ns.load();
  for (int i = 0; i < 3; ++i) cm->on_rollback(0, 1, f.stats);
  EXPECT_EQ(f.stats.contention_ns.load(), before);
}

TEST(ContentionManager, GlobalBlocksAndIsWokenBySuccessStreak) {
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Global, f.ctx(2), 5, /*s_plus=*/3);
  ThreadStats st1;
  std::thread blocked([&] { cm->on_rollback(1, 0, st1); });
  while (cm->blocked_count() == 0) std::this_thread::yield();
  // Thread 0 makes s_plus consecutive successes -> wakes thread 1.
  for (int i = 0; i < 3; ++i) cm->on_success(0);
  blocked.join();
  EXPECT_EQ(cm->blocked_count(), 0);
  EXPECT_GT(st1.contention_ns.load(), 0u);
}

TEST(ContentionManager, GlobalNeverBlocksLastActiveThread) {
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Global, f.ctx(2));
  f.idle.store(1);  // the other thread is idle: we are the last active one
  cm->on_rollback(0, 1, f.stats);  // must return immediately
  EXPECT_EQ(cm->blocked_count(), 0);
}

// Threads 0 and 1 roll back at once while thread 2 is idle: one of them
// must stay active, so however their admission checks interleave, the first
// admitted blocks (blocked + idle + 1 < 3) and the other is refused.
void expect_one_blocker_for_last_slot(CmKind kind) {
  for (int round = 0; round < 200; ++round) {
    CmFixture f;
    f.idle.store(1);
    auto cm = make_contention_manager(kind, f.ctx(3), 5, /*s_plus=*/1000);
    ThreadStats st[2];
    std::atomic<int> ready{0}, returned{0};
    auto rollback = [&](int tid) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      cm->on_rollback(tid, /*conflicting=*/2, st[tid]);
      returned.fetch_add(1);
    };
    std::thread a(rollback, 0);
    std::thread b(rollback, 1);
    // Settled once each thread has returned or is queued; both queued is the
    // failure, so the wait is bounded.
    const double deadline = now_sec() + 10.0;
    while (returned.load() + cm->blocked_count() < 2 && now_sec() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(returned.load(), 1) << "round " << round;
    EXPECT_EQ(cm->blocked_count(), 1) << "round " << round;
    cm->wake_all();
    a.join();
    b.join();
    ASSERT_EQ(returned.load(), 2);
  }
}

TEST(ContentionManager, GlobalAdmitsOneBlockerForTheLastSlot) {
  expect_one_blocker_for_last_slot(CmKind::Global);
}

TEST(ContentionManager, LocalAdmitsOneBlockerForTheLastSlot) {
  expect_one_blocker_for_last_slot(CmKind::Local);
}

TEST(ContentionManager, LocalBreaksTwoCycle) {
  // T0 -> T1 and T1 -> T0 concurrently: by Lemma 1 at least one must not
  // block; by Lemma 2 (with a 3rd active thread present) at most one runs
  // free. Either way both must eventually return once the free one
  // "progresses".
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Local, f.ctx(3), 5, /*s_plus=*/1);
  ThreadStats st0, st1;
  std::atomic<bool> done0{false}, done1{false};
  std::thread t0([&] {
    cm->on_rollback(0, 1, st0);
    done0 = true;
  });
  std::thread t1([&] {
    cm->on_rollback(1, 0, st1);
    done1 = true;
  });
  // One of them may block; simulate progress of whichever returned.
  const double deadline = now_sec() + 10.0;
  while ((!done0 || !done1) && now_sec() < deadline) {
    if (done0) cm->on_success(0);
    if (done1) cm->on_success(1);
    std::this_thread::yield();
  }
  EXPECT_TRUE(done0 && done1) << "dependency cycle deadlocked";
  t0.join();
  t1.join();
}

TEST(ContentionManager, WakeAllReleasesEveryone) {
  CmFixture f;
  auto cm = make_contention_manager(CmKind::Local, f.ctx(4), 5, 1000);
  ThreadStats st[2];
  std::thread a([&] { cm->on_rollback(1, 0, st[0]); });
  std::thread b([&] { cm->on_rollback(2, 0, st[1]); });
  while (cm->blocked_count() < 2) std::this_thread::yield();
  cm->wake_all();
  a.join();
  b.join();
  EXPECT_EQ(cm->blocked_count(), 0);
}

// --- load balancers ------------------------------------------------------

TEST(LoadBalancer, RwsFifoOrder) {
  const Topology topo(4, {2, 2});
  auto lb = make_load_balancer(LbKind::RWS, topo);
  EXPECT_FALSE(lb->any_beggar());
  lb->enqueue_beggar(2);
  lb->enqueue_beggar(3);
  StealLevel lvl{};
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 2);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 3);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), -1);
}

TEST(LoadBalancer, HwsPrefersLocality) {
  // 8 threads: sockets {0,1},{2,3},{4,5},{6,7}; blades {0..3},{4..7}.
  const Topology topo(8, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  StealLevel lvl{};

  // Socket-mate begging on BL1 is the giver's first choice.
  lb->enqueue_beggar(1);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 1);
  EXPECT_EQ(lvl, StealLevel::IntraSocket);

  // BL1 of socket 1 holds tps-1 = 1 beggar; the second one overflows into
  // BL2 of blade 0, where giver 0 (other socket, same blade) can see it.
  lb->enqueue_beggar(3);
  lb->enqueue_beggar(2);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 2);
  EXPECT_EQ(lvl, StealLevel::IntraBlade);

  // Fill blade 1's BL1/BL2 so thread 7 overflows into the global BL3,
  // where any giver finds it.
  lb->enqueue_beggar(4);  // BL1 socket 2
  lb->enqueue_beggar(5);  // BL1[2] full -> BL2 blade 1
  lb->enqueue_beggar(6);  // BL1 socket 3
  lb->enqueue_beggar(7);  // BL1[3] full, BL2[1] full -> BL3
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 7);
  EXPECT_EQ(lvl, StealLevel::InterBlade);

  // Thread 3, still on socket 1's BL1, is deliberately invisible to giver
  // 0 (paper §6.1: BL1 is shared only among the threads of one socket).
  EXPECT_EQ(lb->pop_beggar(0, &lvl), -1);
  EXPECT_EQ(lb->pop_beggar(2, &lvl), 3);  // its socket-mate serves it
  EXPECT_EQ(lvl, StealLevel::IntraSocket);
}

TEST(LoadBalancer, HwsLevelCapacities) {
  // When a whole socket and its blade's BL2 slot are taken, the next
  // beggar lands on BL3 and becomes reachable from the other blade.
  const Topology topo(8, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  lb->enqueue_beggar(0);  // BL1 socket 0
  lb->enqueue_beggar(1);  // BL1[0] full -> BL2 blade 0
  lb->enqueue_beggar(2);  // BL1 socket 1
  lb->enqueue_beggar(3);  // BL1[1] full, BL2[0] full -> BL3
  StealLevel lvl{};
  EXPECT_EQ(lb->pop_beggar(6, &lvl), 3);  // giver on blade 1 reaches BL3
  EXPECT_EQ(lvl, StealLevel::InterBlade);
  // Blade-0 givers still drain their local levels first.
  EXPECT_EQ(lb->pop_beggar(2, &lvl), 2);
  EXPECT_EQ(lvl, StealLevel::IntraSocket);
  EXPECT_EQ(lb->pop_beggar(2, &lvl), 1);
  EXPECT_EQ(lvl, StealLevel::IntraBlade);
}

TEST(LoadBalancer, CancelRemoves) {
  const Topology topo(4, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  lb->enqueue_beggar(1);
  EXPECT_TRUE(lb->any_beggar());
  lb->cancel(1);
  EXPECT_FALSE(lb->any_beggar());
  StealLevel lvl{};
  EXPECT_EQ(lb->pop_beggar(0, &lvl), -1);
  lb->cancel(1);  // double-cancel is a no-op
  EXPECT_FALSE(lb->any_beggar());
}

TEST(LoadBalancer, HwsLocalityOrder) {
  // The HWS invariant: a giver always serves its own socket's BL1 first,
  // then its blade's BL2, then BL3 — regardless of begging order.
  const Topology topo(8, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  StealLevel lvl{};
  lb->enqueue_beggar(7);  // BL1 socket 3 — invisible to giver 0
  lb->enqueue_beggar(3);  // BL1 socket 1 — invisible to giver 0
  lb->enqueue_beggar(2);  // BL1[1] full -> BL2 blade 0
  lb->enqueue_beggar(1);  // BL1 socket 0 — giver 0's own socket
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 1);
  EXPECT_EQ(lvl, StealLevel::IntraSocket);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 2);
  EXPECT_EQ(lvl, StealLevel::IntraBlade);
  EXPECT_EQ(lb->pop_beggar(0, &lvl), -1);  // 3 and 7 stay socket-local
  EXPECT_EQ(lb->pop_beggar(6, &lvl), 7);
  EXPECT_EQ(lvl, StealLevel::IntraSocket);
}

TEST(LoadBalancer, StillBeggingToken) {
  // The lost-wakeup contract: the token is set by enqueue, survives
  // pop_beggar, and is cleared only by the beggar's own cancel.
  const Topology topo(4, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  EXPECT_FALSE(lb->still_begging(1));
  lb->enqueue_beggar(1);
  EXPECT_TRUE(lb->still_begging(1));
  StealLevel lvl{};
  EXPECT_EQ(lb->pop_beggar(0, &lvl), 1);
  EXPECT_TRUE(lb->still_begging(1)) << "pop must not clear the token";
  lb->cancel(1);
  EXPECT_FALSE(lb->still_begging(1));
}

TEST(LoadBalancer, ConcurrentEnqueuePopCancelStress) {
  // Beggars enqueue/cancel while givers pop. Invariants checked: a beggar
  // is never handed out twice per enqueue (claim counter), and the list
  // drains to empty at the end.
  const Topology topo(8, {2, 2});
  auto lb = make_load_balancer(LbKind::HWS, topo);
  constexpr int kBeggars = 6, kRounds = 2000;
  std::array<std::atomic<int>, kBeggars> claimed{};
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  for (int b = 0; b < kBeggars; ++b) {
    pool.emplace_back([&, b] {
      for (int r = 0; r < kRounds; ++r) {
        lb->enqueue_beggar(b);
        claimed[b].fetch_add(1);  // one claim budget per enqueue
        if ((r & 3) == 0) std::this_thread::yield();
        lb->cancel(b);  // also consumes the budget if nobody popped us
      }
    });
  }
  std::array<std::atomic<int>, kBeggars> popped{};
  for (int g = 6; g < 8; ++g) {
    pool.emplace_back([&, g] {
      StealLevel lvl{};
      while (!stop.load(std::memory_order_acquire)) {
        const int b = lb->pop_beggar(g, &lvl);
        if (b >= 0) {
          ASSERT_LT(b, kBeggars);
          popped[b].fetch_add(1);
        }
      }
    });
  }
  for (int b = 0; b < kBeggars; ++b) pool[b].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t g = kBeggars; g < pool.size(); ++g) pool[g].join();

  for (int b = 0; b < kBeggars; ++b) {
    // Each enqueue can be consumed at most once (by a pop or the cancel).
    EXPECT_LE(popped[b].load(), claimed[b].load());
  }
  // Everyone cancelled on exit: the lists must be empty and every token
  // cleared.
  StealLevel lvl{};
  EXPECT_EQ(lb->pop_beggar(0, &lvl), -1);
  EXPECT_FALSE(lb->any_beggar());
  for (int b = 0; b < kBeggars; ++b) EXPECT_FALSE(lb->still_begging(b));
}

// --- MPSC inbox ring ------------------------------------------------------

TEST(MpscRing, BatchPushDrainOrder) {
  MpscRing<int> ring(8);
  const int batch[3] = {10, 11, 12};
  ASSERT_TRUE(ring.try_push_batch(batch, 3));
  ASSERT_TRUE(ring.try_push(13));
  std::vector<int> got;
  EXPECT_EQ(ring.drain([&](const int& v) { got.push_back(v); }), 4u);
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12, 13}));
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, FullRejectsBatchWithoutPartialPublish) {
  MpscRing<int> ring(4);
  const int a[3] = {1, 2, 3};
  ASSERT_TRUE(ring.try_push_batch(a, 3));
  const int b[2] = {4, 5};
  EXPECT_FALSE(ring.try_push_batch(b, 2)) << "only 1 slot left";
  ASSERT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(5));
  std::vector<int> got;
  ring.drain([&](const int& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
  // Slots recycle after the drain.
  EXPECT_TRUE(ring.try_push_batch(a, 3));
}

class MpscRingProducers : public ::testing::TestWithParam<int> {};

TEST_P(MpscRingProducers, ConcurrentBatchesKeepPerProducerFifo) {
  const int kProducers = GetParam();
  constexpr int kPerProducer = 4000;
  constexpr int kBatch = 8;
  MpscRing<std::uint32_t> ring(256);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint32_t batch[kBatch];
      for (int i = 0; i < kPerProducer; i += kBatch) {
        for (int j = 0; j < kBatch; ++j) {
          // value = producer id in the high bits, sequence in the low.
          batch[j] = (static_cast<std::uint32_t>(p) << 24) |
                     static_cast<std::uint32_t>(i + j);
        }
        while (!ring.try_push_batch(batch, kBatch)) {
          std::this_thread::yield();  // consumer will free slots
        }
      }
    });
  }

  std::vector<std::uint32_t> next(static_cast<std::size_t>(kProducers), 0);
  std::uint64_t total = 0;
  const std::uint64_t want =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  while (total < want) {
    total += ring.drain([&](const std::uint32_t& v) {
      const std::uint32_t p = v >> 24;
      const std::uint32_t seq = v & 0xFFFFFFu;
      // A producer's elements arrive in its publication order.
      ASSERT_EQ(seq, next[p]);
      next[p] = seq + 1;
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(total, want);
  EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Fanin, MpscRingProducers,
                         ::testing::Values(1, 2, 4));

// --- thread parker --------------------------------------------------------

TEST(ThreadParker, UnparkBeforeParkIsNotLost) {
  ThreadParker p;
  p.unpark();               // token stored
  EXPECT_TRUE(p.park(0));   // consumed without blocking
}

TEST(ThreadParker, TimedParkReturnsOnTimeout) {
  ThreadParker p;
  const double t0 = now_sec();
  EXPECT_FALSE(p.park(2000));  // 2ms, nobody unparks
  EXPECT_LT(now_sec() - t0, 2.0) << "park must not hang";
}

TEST(ThreadParker, NoLostWakeupUnderHandoffRaces) {
  // The refiner's pattern: consumer checks a flag, parks if clear; producer
  // sets the flag then unparks. Whatever the interleaving, the consumer
  // must observe the flag without waiting out a full timeout each round.
  ThreadParker parker;
  std::atomic<bool> flag{false};
  std::atomic<bool> stop{false};
  constexpr int kRounds = 2000;

  std::thread consumer([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (!flag.load(std::memory_order_acquire)) {
        parker.park(/*timeout_us=*/100000);
        if (stop.load(std::memory_order_acquire)) return;
      }
      flag.store(false, std::memory_order_release);
    }
  });
  std::thread producer([&] {
    for (int r = 0; r < kRounds; ++r) {
      flag.store(true, std::memory_order_release);
      parker.unpark();
      while (flag.load(std::memory_order_acquire)) std::this_thread::yield();
    }
  });

  const double deadline = now_sec() + 30.0;
  producer.join();
  consumer.join();
  EXPECT_LT(now_sec(), deadline) << "hand-off latency collapsed to timeouts";
  stop.store(true);
}

// --- spatial grid ---------------------------------------------------------

TEST(SpatialGrid, InsertQueryRemove) {
  const Aabb box{{0, 0, 0}, {100, 100, 100}};
  SpatialHashGrid grid(box, 2.0);
  grid.insert({10, 10, 10}, 1);
  grid.insert({11, 10, 10}, 2);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid.any_within({10.2, 10, 10}, 1.0));
  EXPECT_FALSE(grid.any_within({50, 50, 50}, 2.0));
  // Radius is strict.
  EXPECT_FALSE(grid.any_within({12, 10, 10}, 1.0));

  std::vector<std::pair<Vec3, VertexId>> out;
  grid.collect_within({10.5, 10, 10}, 1.0, out);
  ASSERT_EQ(out.size(), 2u);

  EXPECT_TRUE(grid.remove({10, 10, 10}, 1));
  EXPECT_FALSE(grid.remove({10, 10, 10}, 1));  // already gone
  grid.collect_within({10.5, 10, 10}, 1.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, 2u);
}

TEST(SpatialGrid, NeighbouringCellsCovered) {
  const Aabb box{{0, 0, 0}, {10, 10, 10}};
  SpatialHashGrid grid(box, 1.0);
  // Points just across cell boundaries from the query point.
  grid.insert({4.95, 5.0, 5.0}, 1);
  grid.insert({5.05, 6.04, 5.0}, 2);
  EXPECT_TRUE(grid.any_within({5.05, 5.0, 5.0}, 0.2));
  EXPECT_TRUE(grid.any_within({5.05, 6.0, 5.0}, 0.2));
}

TEST(SpatialGrid, ConcurrentInsertAndQuery) {
  const Aabb box{{0, 0, 0}, {64, 64, 64}};
  SpatialHashGrid grid(box, 1.0);
  constexpr int kThreads = 4, kPer = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&grid, t] {
      for (int i = 0; i < kPer; ++i) {
        const double x = (t * kPer + i) % 64;
        const double y = ((t * kPer + i) / 64) % 64;
        const double z = t;
        grid.insert({x + 0.1, y + 0.1, z + 0.1},
                    static_cast<VertexId>(t * kPer + i));
        (void)grid.any_within({x, y, z}, 0.5);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(grid.size(), static_cast<std::size_t>(kThreads * kPer));
}

// --- sizing ---------------------------------------------------------------

TEST(Sizing, Helpers) {
  EXPECT_TRUE(std::isinf(sizing::unconstrained()({1, 2, 3})));
  EXPECT_DOUBLE_EQ(sizing::uniform(2.5)({0, 0, 0}), 2.5);

  const auto graded = sizing::axis_graded(0, 0.0, 10.0, 1.0, 5.0);
  EXPECT_DOUBLE_EQ(graded({0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(graded({10, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(graded({5, 0, 0}), 3.0);
  EXPECT_DOUBLE_EQ(graded({-5, 0, 0}), 1.0);  // clamped

  const auto rad = sizing::radial({0, 0, 0}, 1.0, 4.0, 1.0);
  EXPECT_DOUBLE_EQ(rad({0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(rad({2, 0, 0}), 3.0);
  EXPECT_DOUBLE_EQ(rad({100, 0, 0}), 4.0);
}

// --- stats -> metrics registry --------------------------------------------

TEST(Stats, CollectorMatchesAggregateTotals) {
  // The MetricsRegistry snapshot must mirror the legacy aggregate() totals
  // exactly — the manifest consumers treat the two as the same numbers.
  std::vector<ThreadStats> per_thread(3);
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    ThreadStats& s = per_thread[t];
    const auto k = static_cast<std::uint64_t>(t + 1);
    s.operations = 100 * k;
    s.insertions = 80 * k;
    s.removals = 20 * k;
    s.rollbacks = 7 * k;
    s.failed_ops = 3 * k;
    s.cells_created = 500 * k;
    s.steals_intra_socket = 4 * k;
    s.steals_intra_blade = 2 * k;
    s.steals_inter_blade = k;
    s.parks = 6 * k;
    s.unparks_sent = 5 * k;
    s.add_parked(0.5 * static_cast<double>(k));
    s.add_contention(0.25 * static_cast<double>(k));
    s.add_loadbalance(0.125 * static_cast<double>(k));
    s.add_rollback_time(0.0625 * static_cast<double>(k));
  }
  const StatsTotals totals = aggregate(per_thread);

  telemetry::MetricsRegistry reg;
  telemetry::collect_stats(reg, totals);

  EXPECT_EQ(reg.u64("refine.operations"), totals.operations);
  EXPECT_EQ(reg.u64("refine.insertions"), totals.insertions);
  EXPECT_EQ(reg.u64("refine.removals"), totals.removals);
  EXPECT_EQ(reg.u64("refine.rollbacks"), totals.rollbacks);
  EXPECT_EQ(reg.u64("refine.failed_ops"), totals.failed_ops);
  EXPECT_EQ(reg.u64("refine.cells_created"), totals.cells_created);
  EXPECT_EQ(reg.u64("refine.steals_intra_socket"),
            totals.steals_intra_socket);
  EXPECT_EQ(reg.u64("refine.steals_intra_blade"), totals.steals_intra_blade);
  EXPECT_EQ(reg.u64("refine.steals_inter_blade"), totals.steals_inter_blade);
  EXPECT_EQ(reg.u64("refine.steals_total"), totals.total_steals());
  EXPECT_EQ(reg.u64("refine.parks"), totals.parks);
  EXPECT_EQ(reg.u64("refine.unparks"), totals.unparks);
  EXPECT_DOUBLE_EQ(reg.f64("refine.parked_sec"), totals.parked_sec);
  EXPECT_DOUBLE_EQ(reg.f64("refine.contention_sec"), totals.contention_sec);
  EXPECT_DOUBLE_EQ(reg.f64("refine.loadbalance_sec"),
                   totals.loadbalance_sec);
  EXPECT_DOUBLE_EQ(reg.f64("refine.rollback_sec"), totals.rollback_sec);
  EXPECT_DOUBLE_EQ(reg.f64("refine.overhead_sec"),
                   totals.total_overhead_sec());

  // Spot-check against hand-computed sums (1+2+3 = 6 multipliers).
  EXPECT_EQ(reg.u64("refine.operations"), 600u);
  EXPECT_EQ(reg.u64("refine.steals_total"), 42u);
  EXPECT_EQ(reg.u64("refine.parks"), 36u);
  EXPECT_NEAR(reg.f64("refine.parked_sec"), 3.0, 1e-6);
  EXPECT_NEAR(reg.f64("refine.contention_sec"), 1.5, 1e-6);
}

}  // namespace
}  // namespace pi2m
