// Tests for the correctness-hardening subsystem (src/check/) and the
// degeneracy fixes it flushed out: the oplog recorder + sequential replayer,
// canonical snapshots, the invariant auditor, and the point-triangle /
// validate_mesh / MHA-reader degenerate-input bugs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "check/auditor.hpp"
#include "check/oplog.hpp"
#include "check/replay.hpp"
#include "check/snapshot.hpp"
#include "core/refiner.hpp"
#include "core/validate.hpp"
#include "delaunay/mesh.hpp"
#include "delaunay/operations.hpp"
#include "imaging/phantom.hpp"
#include "io/image_io.hpp"
#include "metrics/hausdorff.hpp"
#include "predicates/predicates.hpp"

namespace pi2m {
namespace {

// ---------------------------------------------------------------------------
// point_segment_distance / point_triangle_distance degeneracy fixes
// ---------------------------------------------------------------------------

TEST(PointSegmentDistance, ClampsAndHandlesDegenerateSegment) {
  const Vec3 a{0, 0, 0}, b{2, 0, 0};
  EXPECT_DOUBLE_EQ(point_segment_distance({1, 1, 0}, a, b), 1.0);  // interior
  EXPECT_DOUBLE_EQ(point_segment_distance({-3, 0, 0}, a, b), 3.0);  // clamp a
  EXPECT_DOUBLE_EQ(point_segment_distance({5, 0, 0}, a, b), 3.0);   // clamp b
  // Zero-length segment: falls back to the point distance, no 0/0.
  const double d = point_segment_distance({3, 4, 0}, a, a);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_DOUBLE_EQ(d, 5.0);
}

TEST(PointTriangleDistance, NonDegenerateRegions) {
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0};
  EXPECT_DOUBLE_EQ(point_triangle_distance({0.25, 0.25, 2}, a, b, c), 2.0);
  EXPECT_DOUBLE_EQ(point_triangle_distance({-1, -1, 0}, a, b, c),
                   std::sqrt(2.0));                                  // vertex a
  EXPECT_DOUBLE_EQ(point_triangle_distance({0.5, -1, 0}, a, b, c), 1.0);  // ab
}

TEST(PointTriangleDistance, CollinearTriangleIsFiniteAndExact) {
  // Zero-area but vertices distinct: the barycentric denominator va+vb+vc
  // vanishes; the old code divided and returned NaN. The triangle IS the
  // segment [a, c], so the distance must match the segment distance.
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{2, 0, 0};
  const Vec3 p{1, 3, 0};
  const double d = point_triangle_distance(p, a, b, c);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_DOUBLE_EQ(d, point_segment_distance(p, a, c));
  EXPECT_DOUBLE_EQ(d, 3.0);
}

TEST(PointTriangleDistance, CoincidentVertexPairIsFinite) {
  // a == b used to hit the t = d1/(d1-d3) edge-region 0/0.
  const Vec3 a{1, 1, 1}, c{4, 1, 1};
  const Vec3 p{2, 2, 1};
  const double d = point_triangle_distance(p, a, a, c);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_DOUBLE_EQ(d, point_segment_distance(p, a, c));
  EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(PointTriangleDistance, FullyCollapsedTriangleIsFinite) {
  const Vec3 a{1, 2, 3};
  const double d = point_triangle_distance({1, 2, 7}, a, a, a);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_DOUBLE_EQ(d, 4.0);
}

// ---------------------------------------------------------------------------
// validate_mesh exact degeneracy / sliver detection
// ---------------------------------------------------------------------------

TetMesh single_tet(const Vec3& d) {
  TetMesh m;
  m.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, d};
  m.point_kinds.assign(4, VertexKind::Isosurface);
  std::array<std::uint32_t, 4> t{0, 1, 2, 3};
  // Orient positively per the kernel convention so the test exercises the
  // degeneracy logic, not the base orientation of the coordinates.
  if (orient3d(m.points[t[0]], m.points[t[1]], m.points[t[2]],
               m.points[t[3]]) < 0) {
    std::swap(t[0], t[1]);
  }
  m.tets = {t};
  m.tet_labels = {1};
  for (const auto& f : kFaceOf) {
    m.boundary_tris.push_back({t[f[0]], t[f[1]], t[f[2]]});
  }
  return m;
}

bool has_error_containing(const MeshValidation& v, const std::string& what) {
  for (const auto& e : v.errors) {
    if (e.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(ValidateMesh, WellShapedTetPasses) {
  const MeshValidation v = validate_mesh(single_tet({0, 0, 1}));
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.sliver_elements, 0u);
}

TEST(ValidateMesh, InvertedTetIsRejectedExactly) {
  TetMesh m = single_tet({0, 0, 1});
  std::swap(m.tets[0][0], m.tets[0][1]);  // flip orientation
  const MeshValidation v = validate_mesh(m);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(has_error_containing(v, "inverted"));
}

TEST(ValidateMesh, CoplanarTetIsRejectedExactly) {
  // Fourth point exactly in the plane of the first three. The
  // floating-point volume of such a quadruple can round to a tiny nonzero
  // value; only the exact predicate classifies it reliably.
  TetMesh m = single_tet({0.25, 0.25, 0.0});
  const MeshValidation v = validate_mesh(m);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(has_error_containing(v, "degenerate"));
}

TEST(ValidateMesh, SliverIsCountedNotFatal) {
  // Positive orientation but volume ~1.7e-15 against a threshold of
  // 1e-12 * diag^3 ~ 2.8e-12: reported as a sliver, not an error.
  const MeshValidation v = validate_mesh(single_tet({0.25, 0.25, 1e-14}));
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_EQ(v.sliver_elements, 1u);
}

// ---------------------------------------------------------------------------
// MHA reader: byte order + compression rejection
// ---------------------------------------------------------------------------

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string ushort_mha_header(const std::string& order_key) {
  return "ObjectType = Image\n"
         "NDims = 3\n"
         "BinaryData = True\n" +
         order_key +
         "CompressedData = False\n"
         "DimSize = 2 2 1\n"
         "ElementSpacing = 1 1 1\n"
         "ElementType = MET_USHORT\n"
         "ElementDataFile = LOCAL\n";
}

TEST(ImageIo, BigEndianUshortIsByteSwapped) {
  std::string raw = ushort_mha_header("BinaryDataByteOrderMSB = True\n");
  for (unsigned lab : {0u, 1u, 2u, 200u}) {
    raw.push_back(static_cast<char>(0));    // MSB first
    raw.push_back(static_cast<char>(lab));  // value in the low byte
  }
  const std::string path = write_temp("be.mha", raw);
  std::string err;
  const auto img = io::read_mha(path, &err);
  ASSERT_TRUE(img.has_value()) << err;
  EXPECT_EQ(img->raw()[0], 0);
  EXPECT_EQ(img->raw()[1], 1);
  EXPECT_EQ(img->raw()[2], 2);
  EXPECT_EQ(img->raw()[3], 200);
}

TEST(ImageIo, LittleEndianUshortAlternateKeySpelling) {
  std::string raw = ushort_mha_header("ElementByteOrderMSB = False\n");
  for (unsigned lab : {7u, 0u, 9u, 1u}) {
    raw.push_back(static_cast<char>(lab));
    raw.push_back(static_cast<char>(0));
  }
  const std::string path = write_temp("le.mha", raw);
  std::string err;
  const auto img = io::read_mha(path, &err);
  ASSERT_TRUE(img.has_value()) << err;
  EXPECT_EQ(img->raw()[0], 7);
  EXPECT_EQ(img->raw()[2], 9);
}

TEST(ImageIo, BigEndianLabelOverflowDetected) {
  // 0x0101 = 257 > 255 only when the swap is honoured; a reader that
  // ignored the MSB flag would read the same value and miss nothing, so
  // use an asymmetric pattern: 0x01 0x2C = 300 big-endian, 11265 little.
  std::string raw = ushort_mha_header("ElementByteOrderMSB = True\n");
  raw.push_back(static_cast<char>(0x01));
  raw.push_back(static_cast<char>(0x2C));
  for (int i = 0; i < 3; ++i) {
    raw.push_back(static_cast<char>(0));
    raw.push_back(static_cast<char>(0));
  }
  const std::string path = write_temp("be_overflow.mha", raw);
  std::string err;
  EXPECT_FALSE(io::read_mha(path, &err).has_value());
  EXPECT_NE(err.find("exceeds 255"), std::string::npos) << err;
}

TEST(ImageIo, CompressedDataIsRejectedWithClearError) {
  const std::string raw =
      "ObjectType = Image\n"
      "NDims = 3\n"
      "BinaryData = True\n"
      "CompressedData = True\n"
      "DimSize = 2 2 1\n"
      "ElementType = MET_UCHAR\n"
      "ElementDataFile = LOCAL\n";
  const std::string path = write_temp("compressed.mha", raw);
  std::string err;
  EXPECT_FALSE(io::read_mha(path, &err).has_value());
  EXPECT_NE(err.find("CompressedData"), std::string::npos) << err;
  EXPECT_NE(err.find("decompress"), std::string::npos) << err;
}

TEST(ImageIo, RoundTripStillWorks) {
  const LabeledImage3D img = phantom::ball(8, 0.6);
  const std::string path = ::testing::TempDir() + "roundtrip.mha";
  ASSERT_TRUE(io::write_mha(img, path));
  std::string err;
  const auto back = io::read_mha(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->raw(), img.raw());
}

// ---------------------------------------------------------------------------
// Oplog recorder + canonical snapshots + sequential replay
// ---------------------------------------------------------------------------

Aabb test_box() { return {{0, 0, 0}, {16, 16, 16}}; }

/// Inserts `count` pseudo-random interior points; returns inserted ids.
std::vector<VertexId> insert_random(DelaunayMesh& mesh, std::uint64_t seed,
                                    int count, int tid, OpScratch& scratch) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 15.5);
  std::vector<VertexId> out;
  CellId hint = 0;
  while (static_cast<int>(out.size()) < count) {
    const Vec3 p{u(rng), u(rng), u(rng)};
    const OpResult r =
        insert_point(mesh, p, VertexKind::Circumcenter, hint, tid, scratch);
    if (r.status == OpStatus::Success) {
      out.push_back(r.new_vertex);
      if (!scratch.created.empty()) hint = scratch.created.front();
    } else if (r.status == OpStatus::Failed) {
      continue;  // duplicate/degenerate draw; try another point
    }
  }
  return out;
}

TEST(Oplog, HookIsQuietWithoutSession) {
  const std::size_t before = check::record_count();
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  insert_random(mesh, 1, 20, /*tid=*/0, scratch);
  EXPECT_FALSE(check::active());
  EXPECT_EQ(check::record_count(), before);
}

TEST(Oplog, RecordsCommitsInSequenceOrder) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  check::begin();
  const auto ids = insert_random(mesh, 2, 50, /*tid=*/0, scratch);
  // Remove a few of the inserted vertices too.
  int removed = 0;
  for (std::size_t i = 0; i < ids.size() && removed < 5; i += 7) {
    if (remove_vertex(mesh, ids[i], /*tid=*/0, scratch).status ==
        OpStatus::Success) {
      ++removed;
    }
  }
  check::end();

  const auto log = check::snapshot();
  ASSERT_EQ(log.size(), 50u + static_cast<std::size_t>(removed));
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LT(log[i - 1].seq, log[i].seq);
  }
  std::size_t removes = 0;
  for (const auto& r : log) {
    if (r.op == check::OpKind::Remove) ++removes;
    EXPECT_GT(r.cavity, 0u);
  }
  EXPECT_EQ(removes, static_cast<std::size_t>(removed));
}

TEST(Oplog, SaveLoadRoundTrip) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  check::begin();
  insert_random(mesh, 3, 25, /*tid=*/0, scratch);
  check::end();
  const auto log = check::snapshot();

  const std::string path = ::testing::TempDir() + "oplog.bin";
  ASSERT_TRUE(check::save_oplog(log, path));
  std::string err;
  const auto back = check::load_oplog(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_EQ(back->size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ((*back)[i].point.x, log[i].point.x);
    EXPECT_EQ((*back)[i].point.y, log[i].point.y);
    EXPECT_EQ((*back)[i].point.z, log[i].point.z);
    EXPECT_EQ((*back)[i].seq, log[i].seq);
    EXPECT_EQ((*back)[i].cavity, log[i].cavity);
    EXPECT_EQ((*back)[i].tid, log[i].tid);
    EXPECT_EQ((*back)[i].op, log[i].op);
    EXPECT_EQ((*back)[i].kind, log[i].kind);
  }
}

TEST(Snapshot, CanonicalFormErasesInsertionOrder) {
  // The same point set inserted in opposite orders allocates different
  // vertex/cell ids but builds the same Delaunay complex; the canonical
  // snapshot must not see the difference.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.5, 15.5);
  std::vector<Vec3> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({u(rng), u(rng), u(rng)});

  DelaunayMesh fwd(test_box());
  DelaunayMesh rev(test_box());
  OpScratch s1, s2;
  for (const Vec3& p : pts) {
    ASSERT_EQ(insert_point(fwd, p, VertexKind::Circumcenter, 0, 0, s1).status,
              OpStatus::Success);
  }
  for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
    ASSERT_EQ(insert_point(rev, *it, VertexKind::Circumcenter, 0, 0, s2).status,
              OpStatus::Success);
  }

  const check::MeshSnapshot a = check::snapshot_mesh(fwd);
  const check::MeshSnapshot b = check::snapshot_mesh(rev);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(check::snapshot_bytes(a), check::snapshot_bytes(b));
  EXPECT_EQ(check::snapshot_hash(a), check::snapshot_hash(b));

  const std::string path = ::testing::TempDir() + "snap.bin";
  ASSERT_TRUE(check::save_snapshot(a, path));
  check::MeshSnapshot loaded;
  std::string err;
  ASSERT_TRUE(check::load_snapshot(path, loaded, &err)) << err;
  EXPECT_TRUE(loaded == a);
}

TEST(Replay, SingleThreadRunReplaysByteIdentical) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  check::begin();
  const auto ids = insert_random(mesh, 11, 120, /*tid=*/0, scratch);
  for (std::size_t i = 0; i < ids.size(); i += 9) {
    remove_vertex(mesh, ids[i], /*tid=*/0, scratch);
  }
  check::end();

  const auto log = check::snapshot();
  const check::ReplayOptions opts{.audit_every = 32};
  const check::ReplayResult r = check::replay_oplog(test_box(), log, opts);
  ASSERT_TRUE(r.ok) << r.error << " at op " << r.failed_op;
  EXPECT_EQ(r.applied, log.size());
  EXPECT_TRUE(r.final_audit.ok);

  const check::MeshSnapshot live = check::snapshot_mesh(mesh);
  EXPECT_EQ(check::snapshot_bytes(live), check::snapshot_bytes(r.snapshot));
}

TEST(Replay, FourThreadRunReplaysByteIdentical) {
  DelaunayMesh mesh(test_box());
  constexpr int kThreads = 4;
  check::begin();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&mesh, t] {
      OpScratch scratch;
      std::mt19937_64 rng(100 + t);
      std::uniform_real_distribution<double> u(0.5, 15.5);
      std::vector<VertexId> mine;
      int inserted = 0;
      while (inserted < 150) {
        const Vec3 p{u(rng), u(rng), u(rng)};
        for (int retry = 0; retry < 1000; ++retry) {
          const OpResult r =
              insert_point(mesh, p, VertexKind::Circumcenter, 0, t, scratch);
          if (r.status == OpStatus::Success) {
            mine.push_back(r.new_vertex);
            ++inserted;
            break;
          }
          if (r.status == OpStatus::Failed) break;  // bad draw, new point
        }
      }
      // Sparse removals of this thread's own vertices.
      for (std::size_t i = 0; i < mine.size(); i += 13) {
        for (int retry = 0; retry < 1000; ++retry) {
          const OpStatus st = remove_vertex(mesh, mine[i], t, scratch).status;
          if (st == OpStatus::Success || st == OpStatus::Failed) break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  check::end();

  EXPECT_EQ(mesh.check_integrity(/*check_delaunay=*/false), "");
  const auto log = check::snapshot();
  EXPECT_GE(log.size(), 4u * 150u);

  const check::ReplayOptions opts{.audit_every = 128};
  const check::ReplayResult r = check::replay_oplog(test_box(), log, opts);
  ASSERT_TRUE(r.ok) << r.error << " at op " << r.failed_op;
  const check::MeshSnapshot live = check::snapshot_mesh(mesh);
  EXPECT_EQ(check::snapshot_bytes(live), check::snapshot_bytes(r.snapshot));
  EXPECT_EQ(check::snapshot_hash(live), r.hash);
}

// ---------------------------------------------------------------------------
// Invariant auditor
// ---------------------------------------------------------------------------

TEST(Auditor, CleanMeshPassesFullAudit) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  insert_random(mesh, 21, 200, /*tid=*/0, scratch);
  check::InvariantAuditor auditor(mesh, /*insphere_sample=*/2);
  const check::AuditReport rep = auditor.audit_full();
  EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors.front());
  EXPECT_GT(rep.cells_checked, 0u);
  EXPECT_GT(rep.insphere_checked, 0u);

  // Incremental re-audit of an unchanged mesh touches nothing.
  const check::AuditReport inc = auditor.audit_incremental();
  EXPECT_TRUE(inc.ok);
  EXPECT_EQ(inc.cells_checked, 0u);
}

TEST(Auditor, DetectsSeveredAdjacency) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  insert_random(mesh, 22, 100, /*tid=*/0, scratch);

  // Sever an interior face: a kNoCell neighbour whose face vertices are not
  // all Box-kind violates hull conformity, and the (former) neighbour's
  // back-pointer now dangles into an asymmetric pair.
  bool corrupted = false;
  mesh.for_each_alive_cell([&](CellId c) {
    if (corrupted) return;
    Cell& cell = mesh.cell(c);
    for (int f = 0; f < 4 && !corrupted; ++f) {
      if (cell.n[f].load() == kNoCell) continue;
      bool interior = false;
      for (int k = 0; k < 3; ++k) {
        const VertexId v = cell.v[kFaceOf[f][k]];
        if (mesh.vertex(v).kind != VertexKind::Box) interior = true;
      }
      if (!interior) continue;
      cell.n[f].store(kNoCell);
      corrupted = true;
    }
  });
  ASSERT_TRUE(corrupted);

  check::InvariantAuditor auditor(mesh, /*insphere_sample=*/0);
  const check::AuditReport rep = auditor.audit_full();
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(rep.total_violations, 1u);
  ASSERT_FALSE(rep.errors.empty());
}

TEST(Auditor, DetectsDeadVertexReference) {
  DelaunayMesh mesh(test_box());
  OpScratch scratch;
  const auto ids = insert_random(mesh, 23, 50, /*tid=*/0, scratch);

  // Mark a referenced vertex dead without retriangulating its ball.
  mesh.vertex(ids.front()).dead.store(true);
  check::InvariantAuditor auditor(mesh, /*insphere_sample=*/0);
  const check::AuditReport rep = auditor.audit_full();
  EXPECT_FALSE(rep.ok);
  mesh.vertex(ids.front()).dead.store(false);  // restore for dtor sanity
}

// ---------------------------------------------------------------------------
// Refiner integration: audit_final + seeded contention managers
// ---------------------------------------------------------------------------

TEST(RefinerCheck, FinalAuditCleanOnPhantom) {
  const LabeledImage3D img = phantom::ball(16, 0.7);
  MeshingOptions opt;
  opt.threads = 2;
  opt.delta = 3.0;
  opt.watchdog_sec = 60.0;
  opt.audit_final = true;
  opt.rng_seed = 42;
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.audit_errors.empty())
      << out.audit_errors.size() << " audit errors, first: "
      << out.audit_errors.front();
}

}  // namespace
}  // namespace pi2m
