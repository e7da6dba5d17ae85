#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "delaunay/local_dt.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "geometry/tetra.hpp"
#include "op_retry.hpp"
#include "predicates/predicates.hpp"
#include "support/arena_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PI2M_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PI2M_TEST_ASAN 1
#endif
#endif

namespace pi2m {
namespace {

Aabb unit_box() { return {{0, 0, 0}, {1, 1, 1}}; }

TEST(Mesh, InitialBoxIsSixTets) {
  DelaunayMesh mesh(unit_box());
  EXPECT_EQ(mesh.count_alive_cells(), 6u);
  EXPECT_EQ(mesh.vertex_count(), 8u);
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-12);
  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/false), "");
}

TEST(Mesh, VertexLocking) {
  DelaunayMesh mesh(unit_box());
  std::int32_t held = -1;
  EXPECT_TRUE(mesh.try_lock_vertex(0, 3, held));
  EXPECT_TRUE(mesh.try_lock_vertex(0, 3, held));  // reentrant
  EXPECT_FALSE(mesh.try_lock_vertex(0, 5, held));
  EXPECT_EQ(held, 3);
  mesh.unlock_vertex(0, 3);
  EXPECT_TRUE(mesh.try_lock_vertex(0, 5, held));
  mesh.unlock_vertex(0, 5);
}

TEST(ChunkedStore, GrowthAndStability) {
  ChunkedStore<int> store(100000);
  std::vector<int*> addrs;
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t id = store.allocate();
    store[id] = i;
    if (i % 9999 == 0) addrs.push_back(&store[id]);
  }
  // Addresses captured early must remain valid after growth.
  EXPECT_EQ(*addrs[0], 0);
  EXPECT_EQ(store[49999], 49999);
  EXPECT_EQ(store.size(), 50000u);
}

TEST(ChunkedStore, ConcurrentAllocation) {
  ChunkedStore<std::uint32_t> store(1 << 18);
  constexpr int kThreads = 4, kPer = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (int i = 0; i < kPer; ++i) {
        const std::uint32_t id = store.allocate();
        store[id] = static_cast<std::uint32_t>(t);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(store.size(), kThreads * kPer);
  std::array<int, kThreads> counts{};
  for (std::uint32_t i = 0; i < store.size(); ++i) ++counts[store[i]];
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(counts[t], kPer);
}

// Pool blocks are never freed once a mesh dies, so the pool poisons the
// ones it caches: a read through a destroyed mesh still reports under
// AddressSanitizer, and a block handed out again reads clean.
TEST(ArenaPool, CachedBlocksArePoisonedUnderAsan) {
#ifndef PI2M_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  constexpr std::size_t kBytes = 3 * 4096 + 64;  // a size no arena uses
  ArenaPool& pool = ArenaPool::instance();
  char* p = static_cast<char*>(pool.acquire(kBytes));
  std::memset(p, 1, kBytes);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  pool.release(p, kBytes);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + kBytes - 1));
  char* q = static_cast<char*>(pool.acquire(kBytes));
  ASSERT_EQ(q, p) << "the cached block must be handed out again";
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  EXPECT_FALSE(__asan_address_is_poisoned(q + kBytes - 1));
  pool.release(q, kBytes);
#endif
}

TEST(ChunkedStore, BlockAllocationDisjointAndClamped) {
  ChunkedStore<int> store(100);
  const auto [a_first, a_n] = store.allocate_block(32);
  const auto [b_first, b_n] = store.allocate_block(32);
  EXPECT_EQ(a_n, 32u);
  EXPECT_EQ(b_n, 32u);
  // Blocks are disjoint, contiguous ranges.
  EXPECT_TRUE(a_first + a_n <= b_first || b_first + b_n <= a_first);
  for (std::uint32_t i = 0; i < a_n; ++i) store[a_first + i] = 1;
  for (std::uint32_t i = 0; i < b_n; ++i) store[b_first + i] = 2;
  // Near capacity the grant clamps instead of tripping the capacity check.
  const auto [c_first, c_n] = store.allocate_block(64);
  EXPECT_EQ(c_n, 100u - 64u);
  EXPECT_EQ(c_first, 64u);
  EXPECT_EQ(store.size(), 100u);
}

TEST(ChunkedStore, ConcurrentBlockAllocationDisjoint) {
  ChunkedStore<std::uint32_t> store(1 << 18);
  constexpr int kThreads = 4, kBlocks = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (int i = 0; i < kBlocks; ++i) {
        const auto [first, n] = store.allocate_block(64);
        for (std::uint32_t j = 0; j < n; ++j) {
          store[first + j] = static_cast<std::uint32_t>(t) + 1;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  // Every slot was granted to exactly one thread's block.
  EXPECT_EQ(store.size(), kThreads * kBlocks * 64u);
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    ASSERT_NE(store[i], 0u) << "slot " << i << " granted twice or never";
  }
}

TEST(Mesh, ArenaBlockModePreservesProtocols) {
  // A mesh with a large arena block must behave identically: reserved-
  // unused cell slots read dead (gen 0), reserved-unused vertex slots read
  // dead, and insertion through the block-create path yields a live vertex.
  DelaunayMesh mesh(unit_box(), /*arena_block=*/128);
  EXPECT_EQ(mesh.count_alive_cells(), 6u);
  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/false), "");

  OpScratch s;
  const OpResult r =
      insert_point(mesh, {0.5, 0.5, 0.5}, VertexKind::Circumcenter, 0, 0, s);
  ASSERT_EQ(r.status, OpStatus::Success);
  for (VertexId v : s.locked) mesh.unlock_vertex(v, 0);
  EXPECT_FALSE(mesh.vertex(r.new_vertex).dead.load());
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-12);
  // The vertex block reserved slots ahead of use; they must not count as
  // live vertices (dead defaults true until create_vertex hands them out).
  std::size_t live = 0;
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    if (!mesh.vertex(v).dead.load()) ++live;
  }
  EXPECT_EQ(live, 9u);  // 8 box corners + 1 inserted
}

TEST(Locate, FindsContainingCell) {
  DelaunayMesh mesh(unit_box());
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(0.01, 0.99);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    const LocateResult loc = locate_point(mesh, p, 0);
    ASSERT_TRUE(loc.ok);
    const auto pos = mesh.positions(loc.cell);
    for (int f = 0; f < 4; ++f) {
      EXPECT_GE(orient3d(pos[kFaceOf[f][0]], pos[kFaceOf[f][1]],
                         pos[kFaceOf[f][2]], p),
                0);
    }
  }
}

TEST(Insert, SinglePoint) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  const OpResult r =
      insert_point(mesh, {0.5, 0.5, 0.5}, VertexKind::Circumcenter, 0, 0, s);
  ASSERT_EQ(r.status, OpStatus::Success);
  EXPECT_NE(r.new_vertex, kNoVertex);
  EXPECT_FALSE(s.created.empty());
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-12);
  // All vertex locks must have been released.
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_EQ(mesh.vertex(v).owner.load(), -1);
  }
}

TEST(Insert, DuplicateFails) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  ASSERT_EQ(insert_point(mesh, {0.5, 0.5, 0.5}, VertexKind::Circumcenter, 0, 0, s)
                .status,
            OpStatus::Success);
  EXPECT_EQ(insert_point(mesh, {0.5, 0.5, 0.5}, VertexKind::Circumcenter, 0, 0, s)
                .status,
            OpStatus::Failed);
}

TEST(Insert, OutsideBoxFails) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  EXPECT_EQ(insert_point(mesh, {1.5, 0.5, 0.5}, VertexKind::Circumcenter, 0, 0, s)
                .status,
            OpStatus::Failed);
}

class RandomInsertion : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomInsertion, DelaunayAfterManyInserts) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> u(0.02, 0.98);
  CellId hint = 0;
  int inserted = 0;
  for (int i = 0; i < 250; ++i) {
    const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                    VertexKind::Circumcenter, hint, 0, s);
    if (r.status == OpStatus::Success) {
      ++inserted;
      hint = s.created.front();
    }
  }
  EXPECT_GT(inserted, 240);
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInsertion,
                         ::testing::Values(2u, 3u, 5u, 8u, 13u));

TEST(Insert, GridPointsWithCosphericalDegeneracies) {
  // Regular grid points produce many cospherical configurations; the exact
  // tie rule (on-sphere = outside) must keep the structure consistent.
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  int ok = 0;
  for (int x = 1; x <= 4; ++x) {
    for (int y = 1; y <= 4; ++y) {
      for (int z = 1; z <= 4; ++z) {
        const Vec3 p{x / 5.0, y / 5.0, z / 5.0};
        const OpResult r =
            insert_point(mesh, p, VertexKind::Circumcenter, 0, 0, s);
        if (r.status == OpStatus::Success) ++ok;
      }
    }
  }
  EXPECT_EQ(ok, 64);
  EXPECT_EQ(mesh.check_integrity(false), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
}

TEST(Remove, InsertThenRemoveRestoresDelaunay) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> u(0.1, 0.9);
  std::vector<VertexId> inserted;
  for (int i = 0; i < 60; ++i) {
    const OpResult r = insert_point(mesh, {u(rng), u(rng), u(rng)},
                                    VertexKind::Circumcenter, 0, 0, s);
    if (r.status == OpStatus::Success) inserted.push_back(r.new_vertex);
  }
  ASSERT_GT(inserted.size(), 50u);
  const double vol_before = mesh.total_volume();

  // Remove every third vertex.
  int removed = 0;
  for (std::size_t i = 0; i < inserted.size(); i += 3) {
    const OpResult r = remove_vertex(mesh, inserted[i], 0, s);
    if (r.status == OpStatus::Success) {
      ++removed;
      EXPECT_TRUE(mesh.vertex(inserted[i]).dead.load());
    }
  }
  EXPECT_GT(removed, 10);
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), vol_before, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_EQ(mesh.vertex(v).owner.load(), -1);
  }
}

TEST(Remove, BoxVertexRefused) {
  DelaunayMesh mesh(unit_box());
  OpScratch s;
  EXPECT_EQ(remove_vertex(mesh, mesh.box_vertices()[0], 0, s).status,
            OpStatus::Failed);
}

/// Seeds `mesh` with `n` jittered points so vertex links are generic (an
/// exactly-cospherical link — e.g. the bare box corners — makes removal
/// legitimately abort, per the documented degenerate-ball policy).
void seed_random_points(DelaunayMesh& mesh, int n, unsigned seed) {
  OpScratch s;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.05, 0.95);
  for (int i = 0; i < n; ++i) {
    insert_point(mesh, {u(rng), u(rng), u(rng)}, VertexKind::Circumcenter, 0,
                 0, s);
  }
}

TEST(Remove, DeadVertexRefused) {
  DelaunayMesh mesh(unit_box());
  seed_random_points(mesh, 40, 31);
  OpScratch s;
  const OpResult r =
      insert_point(mesh, {0.49, 0.52, 0.47}, VertexKind::Circumcenter, 0, 0, s);
  ASSERT_EQ(r.status, OpStatus::Success);
  ASSERT_EQ(remove_vertex(mesh, r.new_vertex, 0, s).status, OpStatus::Success);
  EXPECT_EQ(remove_vertex(mesh, r.new_vertex, 0, s).status, OpStatus::Failed);
}

TEST(Remove, ConflictWhenVertexHeld) {
  DelaunayMesh mesh(unit_box());
  seed_random_points(mesh, 40, 33);
  OpScratch s;
  const OpResult r =
      insert_point(mesh, {0.41, 0.63, 0.52}, VertexKind::Circumcenter, 0, 0, s);
  ASSERT_EQ(r.status, OpStatus::Success);
  std::int32_t held = -1;
  ASSERT_TRUE(mesh.try_lock_vertex(r.new_vertex, /*tid=*/9, held));
  OpScratch s2;
  const OpResult rr = remove_vertex(mesh, r.new_vertex, /*tid=*/0, s2);
  EXPECT_EQ(rr.status, OpStatus::Conflict);
  EXPECT_EQ(rr.conflicting_thread, 9);
  mesh.unlock_vertex(r.new_vertex, 9);
  EXPECT_EQ(remove_vertex(mesh, r.new_vertex, 0, s2).status, OpStatus::Success);
}

TEST(LocalDelaunay, CubeCorners) {
  std::vector<Vec3> pts;
  for (int b = 0; b < 8; ++b) {
    pts.push_back({double(b & 1), double((b >> 1) & 1), double((b >> 2) & 1)});
  }
  const LocalDelaunay dt(pts);
  ASSERT_TRUE(dt.ok());
  // The non-aux tets must tile the cube: total volume 1.
  double vol = 0.0;
  for (const auto& t : dt.tets()) {
    if (!t.alive) continue;
    bool aux = false;
    for (int v : t.v) aux = aux || LocalDelaunay::is_aux(v);
    if (aux) continue;
    vol += signed_volume(dt.point(t.v[0]), dt.point(t.v[1]), dt.point(t.v[2]),
                         dt.point(t.v[3]));
  }
  EXPECT_NEAR(vol, 1.0, 1e-9);
}

TEST(LocalDelaunay, DuplicatePointFails) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, 0}};
  const LocalDelaunay dt(pts);
  EXPECT_FALSE(dt.ok());
}

// --- concurrent insertion stress ---------------------------------------

// Every planned operation is retried until it commits or fails for good
// (tests/op_retry.hpp), so the assertions below are exact whatever the
// scheduling; the integrity / volume / lock-leak invariants stay at full
// strength.

TEST(ConcurrentInsert, ParallelThreadsKeepInvariants) {
  DelaunayMesh mesh(unit_box());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<int> successes{0}, failed{0};
  std::atomic<bool> hung{false};
  const auto deadline = std::chrono::steady_clock::now() + test::kHangGuard;

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(1000 + t);
      std::uniform_real_distribution<double> u(0.02, 0.98);
      CellId hint = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const Vec3 p{u(rng), u(rng), u(rng)};
        const OpResult r = test::retry_until_done(
            [&] {
              return insert_point(mesh, p, VertexKind::Circumcenter, hint, t,
                                  s);
            },
            deadline);
        if (r.status == OpStatus::Success) {
          successes.fetch_add(1);
          hint = s.created.front();
        } else if (r.status == OpStatus::Failed) {
          failed.fetch_add(1);
        } else {
          hung.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  ASSERT_FALSE(hung.load()) << "an insert was still retrying at the guard";
  // Random points are in general position: every planned insert commits.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(successes.load(), kThreads * kPerThread);
  EXPECT_EQ(test::live_inner_vertices(mesh),
            static_cast<std::size_t>(successes.load()));
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_EQ(mesh.vertex(v).owner.load(), -1) << "leaked lock on " << v;
  }
}

TEST(ConcurrentMixed, InsertAndRemoveRace) {
  DelaunayMesh mesh(unit_box());
  constexpr int kThreads = 4;
  constexpr int kOps = 300;  // per thread; every 4th removes (i % 4 == 3)
  std::atomic<int> ins{0}, ins_failed{0}, rem{0}, rem_failed{0};
  std::atomic<bool> hung{false};
  const auto deadline = std::chrono::steady_clock::now() + test::kHangGuard;

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(2000 + t);
      std::uniform_real_distribution<double> u(0.05, 0.95);
      std::vector<VertexId> mine;
      for (int i = 0; i < kOps; ++i) {
        if (!mine.empty() && i % 4 == 3) {
          const VertexId victim = mine.back();
          mine.pop_back();
          const OpResult r = test::retry_until_done(
              [&] { return remove_vertex(mesh, victim, t, s); }, deadline);
          if (r.status == OpStatus::Success) {
            rem.fetch_add(1);
          } else if (r.status == OpStatus::Failed) {
            rem_failed.fetch_add(1);  // degenerate or hull-adjacent ball
          } else {
            hung.store(true);
            return;
          }
        } else {
          const Vec3 p{u(rng), u(rng), u(rng)};
          const OpResult r = test::retry_until_done(
              [&] {
                return insert_point(mesh, p, VertexKind::Circumcenter, 0, t,
                                    s);
              },
              deadline);
          if (r.status == OpStatus::Success) {
            ins.fetch_add(1);
            mine.push_back(r.new_vertex);
          } else if (r.status == OpStatus::Failed) {
            ins_failed.fetch_add(1);
          } else {
            hung.store(true);
            return;
          }
        }
        if (i % 16 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& th : pool) th.join();

  ASSERT_FALSE(hung.load()) << "an operation was still retrying at the guard";
  // Every insert commits (general position), so each thread removes on
  // exactly the i % 4 == 3 steps.
  EXPECT_EQ(ins_failed.load(), 0);
  EXPECT_EQ(ins.load(), kThreads * (kOps - kOps / 4));
  EXPECT_EQ(rem.load() + rem_failed.load(), kThreads * (kOps / 4));
  EXPECT_GT(rem.load(), 0);
  EXPECT_EQ(test::live_inner_vertices(mesh),
            static_cast<std::size_t>(ins.load() - rem.load()));
  EXPECT_EQ(mesh.check_integrity(true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_EQ(mesh.vertex(v).owner.load(), -1) << "leaked lock on " << v;
  }
}

// --- Vertex position publication ------------------------------------------

/// Insert/remove churn with a concurrent lock-free reader (locate walks read
/// the positions of vertices they learn from unlocked cell snapshots). Each
/// writer records the point it inserted for each vertex id; afterwards every
/// live vertex's position must be exactly that point.
void position_publication_churn(int writer_threads) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::pair<VertexId, Vec3>>> inserted(
      static_cast<std::size_t>(writer_threads));

  std::vector<std::thread> pool;
  for (int t = 0; t < writer_threads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(9000 + t);
      std::uniform_real_distribution<double> u(0.02, 0.98);
      auto& mine = inserted[static_cast<std::size_t>(t)];
      std::vector<VertexId> live;
      CellId hint = 0;
      for (int i = 0; i < 400; ++i) {
        if (!live.empty() && i % 4 == 3) {
          if (remove_vertex(mesh, live.back(), t, s).status ==
              OpStatus::Success) {
            live.pop_back();
          }
        } else {
          const Vec3 p{u(rng), u(rng), u(rng)};
          const OpResult r =
              insert_point(mesh, p, VertexKind::Circumcenter, hint, t, s);
          if (r.status == OpStatus::Success) {
            live.push_back(r.new_vertex);
            mine.emplace_back(r.new_vertex, p);
            hint = s.created.front();
          }
        }
      }
    });
  }
  std::thread reader([&] {
    std::mt19937 rng(777);
    std::uniform_real_distribution<double> u(0.02, 0.98);
    while (!stop.load(std::memory_order_acquire)) {
      (void)locate_point(mesh, {u(rng), u(rng), u(rng)}, 0);
    }
  });
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/true), "");
  std::size_t live = 0;
  for (const auto& mine : inserted) {
    for (const auto& [v, p] : mine) {
      if (mesh.vertex(v).dead.load()) continue;
      ++live;
      ASSERT_EQ(std::memcmp(&mesh.position(v), &p, sizeof(Vec3)), 0)
          << "vertex " << v << " does not hold the point inserted for it";
    }
  }
  EXPECT_GT(live, 0u);
  // Every live non-box vertex is one a writer inserted.
  EXPECT_EQ(live, test::live_inner_vertices(mesh));
}

TEST(PositionPublication, ExactAfterSingleThreadChurn) {
  position_publication_churn(1);
}
TEST(PositionPublication, ExactAfterTwoThreadChurn) {
  position_publication_churn(2);
}
TEST(PositionPublication, ExactAfterFourThreadChurn) {
  position_publication_churn(4);
}

}  // namespace
}  // namespace pi2m
