// Heavier concurrency torture: long mixed workloads at high (oversubscribed)
// thread counts with full invariant verification. These run a few seconds
// each — they are the closest this suite gets to the paper's 100+-core
// adversarial interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "core/pi2m.hpp"
#include "core/refiner.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/phantom.hpp"
#include "op_retry.hpp"

namespace pi2m {
namespace {

// Every planned kernel operation is retried until it commits or fails for
// good (tests/op_retry.hpp), so the assertions are exact whatever the
// scheduling; the integrity / volume / lock-leak invariants stay at full
// strength.

TEST(Torture, SixteenThreadsMixedOpsOnKernel) {
  DelaunayMesh mesh({{0, 0, 0}, {1, 1, 1}});
  constexpr int kThreads = 16;
  constexpr int kOps = 500;  // per thread; every 3rd removes (i % 3 == 2)
  std::atomic<std::uint64_t> inserts{0}, insert_failed{0}, removes{0},
      remove_failed{0};
  std::atomic<bool> hung{false};
  const auto deadline = std::chrono::steady_clock::now() + test::kHangGuard;

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      OpScratch s;
      std::mt19937 rng(5000 + t);
      std::uniform_real_distribution<double> u(0.02, 0.98);
      std::vector<VertexId> mine;
      CellId hint = 0;
      for (int i = 0; i < kOps; ++i) {
        if (!mine.empty() && i % 3 == 2) {
          const VertexId victim = mine.back();
          mine.pop_back();
          const OpResult r = test::retry_until_done(
              [&] { return remove_vertex(mesh, victim, t, s); }, deadline);
          if (r.status == OpStatus::Success) {
            removes.fetch_add(1, std::memory_order_relaxed);
          } else if (r.status == OpStatus::Failed) {
            // Degenerate or hull-adjacent ball: the vertex stays.
            remove_failed.fetch_add(1, std::memory_order_relaxed);
          } else {
            hung.store(true);
            return;
          }
        } else {
          const Vec3 p{u(rng), u(rng), u(rng)};
          const OpResult r = test::retry_until_done(
              [&] {
                return insert_point(mesh, p, VertexKind::Circumcenter, hint,
                                    t, s);
              },
              deadline);
          if (r.status == OpStatus::Success) {
            mine.push_back(r.new_vertex);
            inserts.fetch_add(1, std::memory_order_relaxed);
            hint = s.created.front();
          } else if (r.status == OpStatus::Failed) {
            insert_failed.fetch_add(1, std::memory_order_relaxed);
          } else {
            hung.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  ASSERT_FALSE(hung.load()) << "an operation was still retrying at the guard";
  // Every insert commits (general position), so each thread removes on
  // exactly the i % 3 == 2 steps.
  constexpr std::uint64_t kRemovesPerThread = kOps / 3;
  EXPECT_EQ(insert_failed.load(), 0u);
  EXPECT_EQ(inserts.load(), kThreads * (kOps - kRemovesPerThread));
  EXPECT_EQ(removes.load() + remove_failed.load(),
            kThreads * kRemovesPerThread);
  EXPECT_GT(removes.load(), 0u);
  EXPECT_EQ(test::live_inner_vertices(mesh),
            inserts.load() - removes.load());
  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/true), "");
  EXPECT_NEAR(mesh.total_volume(), 1.0, 1e-9);
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    ASSERT_EQ(mesh.vertex(v).owner.load(), -1) << "leaked lock on " << v;
  }
}

TEST(Torture, RefinerSixteenThreadsEveryConfig) {
  // One substantial refinement per CM at 16 threads, all invariants on.
  const LabeledImage3D img = phantom::abdominal(36, 36, 36);
  for (const CmKind cm :
       {CmKind::Random, CmKind::Global, CmKind::Local}) {
    MeshingOptions opt;
    opt.threads = 16;
    opt.topology = {2, 2};
    opt.delta = 1.4;
    opt.contention_manager = cm;
    opt.watchdog_sec = 60.0;
    Refiner refiner(img, opt);
    const RefineOutcome out = refiner.refine();
    ASSERT_TRUE(out.completed) << cm_name(cm);
    EXPECT_EQ(refiner.mesh().check_integrity(false), "") << cm_name(cm);
    const Vec3 ext = refiner.mesh().box().extent();
    EXPECT_NEAR(refiner.mesh().total_volume(), ext.x * ext.y * ext.z,
                1e-6 * ext.x * ext.y * ext.z)
        << cm_name(cm);
    for (VertexId v = 0; v < refiner.mesh().vertex_count(); ++v) {
      ASSERT_EQ(refiner.mesh().vertex(v).owner.load(), -1)
          << cm_name(cm) << " leaked lock " << v;
    }
  }
}

TEST(Torture, RepeatedRefinementsAreConsistent) {
  // Same input meshed repeatedly (different thread counts) must agree on
  // the element count within a small tolerance: the mesh is not literally
  // deterministic under concurrency, but the refinement rules pin the
  // density.
  const LabeledImage3D img = phantom::concentric_shells(28);
  std::vector<std::size_t> counts;
  for (const int threads : {1, 4, 16}) {
    MeshingOptions opt;
    opt.threads = threads;
    opt.delta = 1.6;
    Refiner refiner(img, opt);
    const RefineOutcome out = refiner.refine();
    ASSERT_TRUE(out.completed);
    counts.push_back(
        extract_mesh(refiner.mesh(), refiner.oracle(), threads).num_tets());
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), static_cast<double>(counts[0]),
                0.15 * counts[0]);
  }
}

}  // namespace
}  // namespace pi2m
