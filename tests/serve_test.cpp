// Tests for the serving subsystem: the protocol JSON codec, the bounded
// priority queue, MeshService admission control / cancellation / metrics,
// the EDT cache (hit/miss/eviction/single-flight), cross-job isolation
// under concurrent submitters (run under TSan via the `sanitize` label),
// the warm-arena / warm-cache determinism regressions, and one live
// socket round-trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "check/snapshot.hpp"
#include "core/refiner.hpp"
#include "imaging/edt_cache.hpp"
#include "imaging/phantom.hpp"
#include "pipeline/job_options.hpp"
#include "pipeline/mesh_job.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/arena_pool.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json_writer.hpp"

namespace {

using namespace pi2m;
using namespace pi2m::serve;

// ---------- JSON reader + base64 ----------

TEST(ServeJson, ParsesScalarsAndContainers) {
  std::string err;
  const JsonValue v = json_parse(
      R"({"a":1.5,"b":-3,"s":"hi\nthere","t":true,"n":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})",
      &err);
  ASSERT_TRUE(v.is_object()) << err;
  EXPECT_DOUBLE_EQ(v["a"].as_double(), 1.5);
  EXPECT_EQ(v["b"].as_int(), -3);
  EXPECT_EQ(v["s"].as_string(), "hi\nthere");
  EXPECT_TRUE(v["t"].as_bool());
  EXPECT_TRUE(v["n"].is_null());
  ASSERT_EQ(v["arr"].as_array().size(), 3u);
  EXPECT_EQ(v["arr"].as_array()[2].as_int(), 3);
  EXPECT_EQ(v["obj"]["k"].as_string(), "v");
  // Missing keys chain to null without crashing.
  EXPECT_TRUE(v["missing"]["deeper"].is_null());
}

TEST(ServeJson, DecodesUnicodeEscapes) {
  const JsonValue v = json_parse(R"("é€😀")");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\":1}x", "nan", "[1,]"}) {
    std::string err;
    EXPECT_TRUE(json_parse(bad, &err).is_null()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(ServeJson, RoundTripsJsonWriterOutput) {
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("name", "a \"quoted\" \\ value\n")
      .kv("pi", 3.25)
      .key("list")
      .begin_array()
      .value(std::uint64_t{18446744073709551615ULL})
      .value(false)
      .end_array()
      .end_object();
  std::string err;
  const JsonValue v = json_parse(w.str(), &err);
  ASSERT_TRUE(v.is_object()) << err;
  EXPECT_EQ(v["name"].as_string(), "a \"quoted\" \\ value\n");
  EXPECT_DOUBLE_EQ(v["pi"].as_double(), 3.25);
  EXPECT_EQ(v["list"].as_array().size(), 2u);
}

TEST(ServeJson, Base64RoundTrip) {
  std::vector<std::uint8_t> data;
  for (int n = 0; n <= 17; ++n) {
    const std::string enc = base64_encode(data.data(), data.size());
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(base64_decode(enc, &back)) << "len " << n;
    EXPECT_EQ(back, data) << "len " << n;
    data.push_back(static_cast<std::uint8_t>(n * 37 + 5));
  }
  EXPECT_EQ(base64_encode("foob", 4), "Zm9vYg==");
}

TEST(ServeJson, Base64RejectsGarbage) {
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(base64_decode("abc", &out));      // not a multiple of 4
  EXPECT_FALSE(base64_decode("ab!=", &out));     // bad character
  EXPECT_FALSE(base64_decode("=abc", &out));     // padding up front
  EXPECT_FALSE(base64_decode("a===", &out));     // too much padding
  EXPECT_FALSE(base64_decode("Zm9vYg==Zm9v", &out));  // data after padding
  EXPECT_TRUE(base64_decode("", &out));
  EXPECT_TRUE(out.empty());
}

// ---------- protocol ----------

TEST(ServeProtocol, ParsesEveryOp) {
  EXPECT_EQ(parse_request(R"({"op":"ping"})").op, Request::Op::Ping);
  EXPECT_EQ(parse_request(R"({"op":"stats"})").op, Request::Op::Stats);

  Request sub = parse_request(
      R"({"op":"submit","priority":"high","job":{"phantom":"ball",)"
      R"("size":24,"delta":1.25,"threads":3,"cm":"global","lb":"rws",)"
      R"("smooth":2,"report":true,"outputs":["/tmp/x.vtk"]}})");
  ASSERT_EQ(sub.op, Request::Op::Submit) << sub.error;
  EXPECT_EQ(sub.priority, Priority::High);
  EXPECT_EQ(sub.job.phantom, "ball");
  EXPECT_EQ(sub.job.phantom_size, 24);
  EXPECT_DOUBLE_EQ(sub.job.mesh.delta, 1.25);
  EXPECT_EQ(sub.job.mesh.threads, 3);
  EXPECT_EQ(sub.job.mesh.contention_manager, CmKind::Global);
  EXPECT_EQ(sub.job.mesh.load_balancer, LbKind::RWS);
  EXPECT_EQ(sub.job.smooth, 2);
  EXPECT_TRUE(sub.job.want_report);
  ASSERT_EQ(sub.job.outputs.size(), 1u);

  const Request st = parse_request(R"({"op":"status","id":7})");
  ASSERT_EQ(st.op, Request::Op::Status);
  EXPECT_EQ(st.id, 7u);

  const Request sd = parse_request(R"({"op":"shutdown","mode":"now"})");
  ASSERT_EQ(sd.op, Request::Op::Shutdown);
  EXPECT_FALSE(sd.drain);
  EXPECT_TRUE(parse_request(R"({"op":"shutdown"})").drain);
}

TEST(ServeProtocol, RejectsBadRequests) {
  EXPECT_EQ(parse_request("not json").op, Request::Op::Invalid);
  EXPECT_EQ(parse_request(R"({"op":"warp"})").op, Request::Op::Invalid);
  EXPECT_EQ(parse_request(R"({"op":"status"})").op, Request::Op::Invalid);
  EXPECT_EQ(parse_request(R"({"op":"status","id":1e300})").op,
            Request::Op::Invalid);
  // No input at all, two inputs, bad knobs.
  EXPECT_EQ(parse_request(R"({"op":"submit","job":{}})").op,
            Request::Op::Invalid);
  EXPECT_EQ(parse_request(R"({"op":"submit","job":{"phantom":"ball",)"
                          R"("input":"/x.mha"}})")
                .op,
            Request::Op::Invalid);
  EXPECT_EQ(parse_request(
                R"({"op":"submit","job":{"phantom":"ball","delta":-1}})")
                .op,
            Request::Op::Invalid);
  EXPECT_EQ(parse_request(
                R"({"op":"submit","job":{"phantom":"ball","cm":"chaos"}})")
                .op,
            Request::Op::Invalid);
  EXPECT_EQ(parse_request(R"({"op":"submit","priority":"urgent",)"
                          R"("job":{"phantom":"ball"}})")
                .op,
            Request::Op::Invalid);
}

TEST(ServeProtocol, RefusesBadJobValues) {
  // Wrong JSON type, unknown or command-line-only key, fraction or
  // out-of-range number, unknown output format: BAD_REQUEST, not a
  // silent default or a failure after meshing.
  for (const char* knob :
       {R"("delta":0)", R"("delta":-1)", R"("delta":"abc")", R"("delat":1)",
        R"("threads":2.7)", R"("threads":1e12)", R"("threads":-1)",
        R"("threads":257)", R"("size":1)", R"("report":1)", R"("cm":3)",
        R"("cm":"Global-CM")", R"("outputs":"/tmp/m.vtk")",
        R"("outputs":[3])", R"("outputs":["/tmp/m.obj"])",
        R"("outputs":["/tmp/m.vtk","/tmp/m"])", R"("pin":true)",
        R"("park_spin_us":10)", R"("topology":"auto")", R"("volume":5)",
        R"("volume":{"nx":4294967297,"ny":1,"nz":1,"labels_b64":"AA=="})"}) {
    const std::string line =
        std::string(R"({"op":"submit","job":{"phantom":"ball",)") + knob +
        "}}";
    const Request req = parse_request(line);
    EXPECT_EQ(req.op, Request::Op::Invalid) << knob;
    EXPECT_FALSE(req.error.empty()) << knob;
  }
  JobSpec spec;
  std::string err;
  ASSERT_FALSE(decode_job(
      json_parse(R"({"phantom":"ball","outputs":["/tmp/m.obj"]})"), &spec,
      &err));
  EXPECT_NE(err.find("outputs"), std::string::npos) << err;
  EXPECT_NE(err.find("/tmp/m.obj"), std::string::npos) << err;

  // The thread bound's ends decode; 0 stays "the service's default".
  ASSERT_TRUE(
      decode_job(json_parse(R"({"phantom":"ball","threads":256})"), &spec, &err))
      << err;
  EXPECT_EQ(spec.mesh.threads, kMaxJobThreads);
  ASSERT_TRUE(
      decode_job(json_parse(R"({"phantom":"ball","threads":0})"), &spec, &err))
      << err;
  EXPECT_EQ(spec.mesh.threads, 0);
}

TEST(ServeProtocol, DecodesInlineVolume) {
  const LabeledImage3D ball = phantom::ball(8);
  telemetry::JsonWriter w;
  w.begin_object()
      .key("volume")
      .begin_object()
      .kv("nx", ball.nx())
      .kv("ny", ball.ny())
      .kv("nz", ball.nz())
      .key("spacing")
      .begin_array()
      .value(0.5)
      .value(0.5)
      .value(2.0)
      .end_array()
      .kv("labels_b64",
          base64_encode(ball.raw().data(), ball.raw().size()))
      .end_object()
      .end_object();
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(decode_job(json_parse(w.str()), &spec, &err)) << err;
  ASSERT_NE(spec.inline_image, nullptr);
  EXPECT_EQ(spec.inline_image->nx(), 8);
  EXPECT_EQ(spec.inline_image->spacing().z, 2.0);
  EXPECT_EQ(spec.inline_image->raw(), ball.raw());

  // A size mismatch between dims and payload is refused.
  JobSpec bad;
  ASSERT_FALSE(decode_job(
      json_parse(R"({"volume":{"nx":8,"ny":8,"nz":8,"labels_b64":"AAAA"}})"),
      &bad, &err));
}

TEST(ServeProtocol, InteriorKnobRoundTrip) {
  // The knob travels client -> JSON -> JobSpec -> per-job manifest.
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(decode_job(
      json_parse(R"({"phantom":"ball","interior":"lattice",)"
                 R"("lattice_spacing":3.5})"),
      &spec, &err))
      << err;
  EXPECT_EQ(spec.mesh.interior, InteriorFill::Lattice);
  EXPECT_EQ(spec.mesh.lattice_spacing, 3.5);

  // Absent knob keeps the pure-Delaunay default.
  JobSpec dflt;
  ASSERT_TRUE(decode_job(json_parse(R"({"phantom":"ball"})"), &dflt, &err));
  EXPECT_EQ(dflt.mesh.interior, InteriorFill::Delaunay);

  // Unknown fills and negative spacings are refused.
  JobSpec bad;
  EXPECT_FALSE(decode_job(
      json_parse(R"({"phantom":"ball","interior":"voronoi"})"), &bad, &err));
  EXPECT_NE(err.find("interior"), std::string::npos);
  EXPECT_FALSE(decode_job(
      json_parse(R"({"phantom":"ball","lattice_spacing":-1})"), &bad, &err));

  // A decoded spec carries the knob into the job's run manifest.
  spec.phantom = "ball";
  spec.phantom_size = 16;
  spec.mesh.delta = 1.5;
  spec.mesh.threads = 1;
  MeshJob job(std::move(spec));
  ASSERT_TRUE(job.run().ok) << job.artifacts().error;
  const JsonValue man =
      json_parse(job.build_manifest("serve_test").to_json(), &err);
  ASSERT_TRUE(man.is_object()) << err;
  EXPECT_EQ(man["config"]["interior"].as_string(), "lattice");
}

// ---------- job queue ----------

TEST(ServeQueue, PriorityThenFifo) {
  JobQueue<int> q(16);
  using Push = JobQueue<int>::Push;
  EXPECT_EQ(q.try_push(1, Priority::Low), Push::Ok);
  EXPECT_EQ(q.try_push(2, Priority::Normal), Push::Ok);
  EXPECT_EQ(q.try_push(3, Priority::High), Push::Ok);
  EXPECT_EQ(q.try_push(4, Priority::High), Push::Ok);
  EXPECT_EQ(q.try_push(5, Priority::Normal), Push::Ok);
  q.close();
  std::vector<int> order;
  int v = 0;
  while (q.pop(&v)) order.push_back(v);
  EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 5, 1}));
}

TEST(ServeQueue, BoundAndClose) {
  JobQueue<int> q(2);
  using Push = JobQueue<int>::Push;
  EXPECT_EQ(q.try_push(1, Priority::Normal), Push::Ok);
  EXPECT_EQ(q.try_push(2, Priority::High), Push::Ok);
  EXPECT_EQ(q.try_push(3, Priority::High), Push::Full);  // bound hit
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_TRUE(q.remove_if([](int x) { return x == 2; }));
  EXPECT_FALSE(q.remove_if([](int x) { return x == 99; }));
  EXPECT_EQ(q.depth(), 1u);
  q.close();
  EXPECT_EQ(q.try_push(4, Priority::Normal), Push::Closed);
  int v = 0;
  EXPECT_TRUE(q.pop(&v));  // close drains the backlog first
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(q.pop(&v));
}

TEST(ServeQueue, CloseAndClearReturnsBacklog) {
  JobQueue<int> q(8);
  q.try_push(1, Priority::Low);
  q.try_push(2, Priority::High);
  const auto dropped = q.close_and_clear();
  EXPECT_EQ(dropped.size(), 2u);
  int v = 0;
  EXPECT_FALSE(q.pop(&v));
}

// ---------- latency histogram ----------

TEST(ServeHistogram, PercentilesAreOrderedAndPlausible) {
  telemetry::LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.record_sec(1e-3);   // ~1 ms
  for (int i = 0; i < 100; ++i) h.record_sec(100e-3);  // ~100 ms tail
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.sum_sec, 0.9 + 10.0, 0.5);
  EXPECT_NEAR(s.max_sec, 0.1, 0.01);
  EXPECT_LE(s.p50_sec, s.p90_sec);
  EXPECT_LE(s.p90_sec, s.p95_sec);
  EXPECT_LE(s.p95_sec, s.p99_sec);
  EXPECT_GT(s.p50_sec, 0.5e-3);
  EXPECT_LT(s.p50_sec, 2e-3);
  EXPECT_GT(s.p99_sec, 50e-3);

  telemetry::MetricsRegistry reg;
  h.publish(reg, "serve.latency.mesh");
  EXPECT_EQ(reg.u64("serve.latency.mesh.count"), 1000u);
  EXPECT_GT(reg.f64("serve.latency.mesh.p99_sec"), 0.0);
}

TEST(ServeHistogram, SingleSampleNeverExceedsMax) {
  // One 520 µs sample: a power-of-two bucket midpoint would report 724 µs.
  telemetry::LatencyHistogram h;
  h.record_sec(520e-6);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_NEAR(s.max_sec, 520e-6, 1e-9);
  EXPECT_LE(s.p50_sec, s.max_sec);
  EXPECT_LE(s.p99_sec, s.max_sec);
  EXPECT_GT(s.p50_sec, 0.9 * 520e-6);
}

TEST(ServeHistogram, SubOctaveResolution) {
  // 1..100 ms in 1 ms steps: the true p50/p90 are 50 and 90 ms, all inside
  // one or two octaves, so distinct percentiles need sub-octave buckets.
  telemetry::LatencyHistogram h;
  for (int ms = 1; ms <= 100; ++ms) h.record_sec(ms * 1e-3);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50_sec, 50e-3, 0.1 * 50e-3);
  EXPECT_NEAR(s.p90_sec, 90e-3, 0.1 * 90e-3);
  // One power-of-two bucket (65.5..131 ms) holds 66..100 ms: p90 and p99
  // must still differ.
  EXPECT_LT(s.p50_sec, s.p90_sec);
  EXPECT_LT(s.p90_sec, s.p99_sec);
  EXPECT_LE(s.p99_sec, s.max_sec);
}

TEST(ServeHistogram, EstimatesClampedToMaxAcrossScales) {
  // Identical samples at many magnitudes: every percentile lands in the
  // sample's own bucket and none may exceed the recorded maximum.
  for (double sec : {1e-6, 3e-6, 7e-6, 9e-6, 130e-6, 520e-6, 1.5e-3, 0.77,
                     42.0}) {
    telemetry::LatencyHistogram h;
    for (int i = 0; i < 5; ++i) h.record_sec(sec);
    const auto s = h.snapshot();
    EXPECT_LE(s.p50_sec, s.max_sec) << sec;
    EXPECT_LE(s.p99_sec, s.max_sec) << sec;
    EXPECT_GE(s.p50_sec, 0.9 * s.max_sec) << sec;
  }
}

// ---------- EDT cache ----------

TEST(ServeEdtCache, HitMissEvictionAndPinning) {
  const LabeledImage3D a = phantom::ball(24);
  const LabeledImage3D b = phantom::concentric_shells(24);
  // Budget fits exactly one 24^3 entry (7 bytes/voxel + slack).
  EdtCache cache(24 * 24 * 24 * 7 + 16384);

  bool hit = true;
  const auto ea = cache.acquire(a, 1, &hit);
  ASSERT_NE(ea, nullptr);
  EXPECT_FALSE(hit);
  ASSERT_NE(ea->oracle, nullptr);

  const auto ea2 = cache.acquire(a, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(ea2.get(), ea.get());  // same pinned entry

  const auto eb = cache.acquire(b, 1, &hit);  // evicts a
  EXPECT_FALSE(hit);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 1u);

  // The evicted entry survives through its pin; content is still intact.
  EXPECT_EQ(ea->image.raw(), a.raw());
  const auto ea3 = cache.acquire(a, 1, &hit);  // recompute (and evict b)
  EXPECT_FALSE(hit);
  EXPECT_NE(ea3.get(), ea.get());
  EXPECT_EQ(image_content_hash(ea3->image), image_content_hash(ea->image));
}

TEST(ServeEdtCache, SingleFlightUnderConcurrentMisses) {
  const LabeledImage3D a = phantom::ball(28);
  EdtCache cache(std::size_t{64} << 20);
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  std::vector<std::shared_ptr<const EdtCache::Entry>> got(kThreads);
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&, i] { got[i] = cache.acquire(a, 1); });
  }
  for (auto& t : ts) t.join();
  for (int i = 1; i < kThreads; ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_EQ(got[i].get(), got[0].get()) << "thread " << i;
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);  // exactly one compute
  EXPECT_EQ(st.hits + st.coalesced, kThreads - 1u);
}

// ---------- MeshJob pipeline ----------

JobSpec small_ball_spec(int size = 24, int threads = 1) {
  JobSpec spec;
  spec.phantom = "ball";
  spec.phantom_size = size;
  spec.mesh.threads = threads;
  return spec;
}

TEST(ServeMeshJob, RunsAndBuildsManifest) {
  MeshJob job(small_ball_spec());
  const JobArtifacts& art = job.run();
  ASSERT_TRUE(art.ok) << art.error;
  EXPECT_GT(art.mesh.num_tets(), 0u);
  EXPECT_TRUE(art.metrics.flag("refine.completed"));
  EXPECT_GT(art.metrics.u64("mesh.tets"), 0u);

  const telemetry::RunManifest man = job.build_manifest("serve_test");
  std::string err;
  const JsonValue parsed = json_parse(man.to_json(), &err);
  ASSERT_TRUE(parsed.is_object()) << err;
  EXPECT_EQ(parsed["schema"].as_string(), "pi2m-manifest");
  EXPECT_EQ(parsed["config"]["input"].as_string(), "phantom:ball");
  EXPECT_GT(parsed["metrics"]["mesh.tets"].as_int(), 0);
}

TEST(ServeMeshJob, ManifestTimesReportsAndValidation) {
  const auto phase_names = [](const MeshJob& job) {
    std::vector<std::string> names;
    for (const auto& [name, sec] : job.build_manifest("serve_test").phases) {
      EXPECT_GE(sec, 0.0) << name;
      names.push_back(name);
    }
    return names;
  };
  MeshJob plain(small_ball_spec());
  ASSERT_TRUE(plain.run().ok) << plain.artifacts().error;
  EXPECT_EQ(phase_names(plain).back(), "extract");

  const std::string out = ::testing::TempDir() + "/serve_test_manifest.p2m";
  JobSpec spec = small_ball_spec();
  spec.want_report = true;
  spec.want_validation = true;
  spec.outputs = {out};
  MeshJob job(std::move(spec));
  ASSERT_TRUE(job.run().ok) << job.artifacts().error;
  std::remove(out.c_str());
  const std::vector<std::string> names = phase_names(job);
  ASSERT_GE(names.size(), 6u);
  EXPECT_EQ(std::vector<std::string>(names.end() - 6, names.end()),
            (std::vector<std::string>{"refine", "extract", "quality",
                                      "hausdorff", "validate", "write"}));
}

// Smoothing and the reports run on the oracle the mesh was refined
// against; they must match what a second, freshly built oracle (a second
// EDT of the same image) gives on the same single-threaded mesh.
TEST(ServeMeshJob, ReportsReuseTheRefinementOracle) {
  JobSpec spec = small_ball_spec(32, 1);
  spec.smooth = 2;
  spec.want_report = true;
  MeshJob job(spec);
  const JobArtifacts& art = job.run();
  ASSERT_TRUE(art.ok) << art.error;
  ASSERT_TRUE(art.smoothing && art.quality && art.hausdorff);

  MeshingResult res = mesh_image(job.image(), spec.mesh);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.oracle, nullptr);
  const IsosurfaceOracle second(job.image(), spec.mesh.threads);
  SmoothingOptions sopt;
  sopt.iterations = spec.smooth;
  sopt.threads = spec.mesh.threads;
  const SmoothingReport sm = smooth_mesh(res.mesh, second, sopt);
  const QualityReport q = evaluate_quality(res.mesh);
  const HausdorffResult h = hausdorff_distance(res.mesh, second, 2);

  EXPECT_EQ(art.mesh.points, res.mesh.points);
  EXPECT_EQ(art.mesh.tets, res.mesh.tets);
  EXPECT_EQ(art.smoothing->moves_accepted, sm.moves_accepted);
  EXPECT_EQ(art.smoothing->moves_rejected, sm.moves_rejected);
  EXPECT_EQ(art.smoothing->min_dihedral_after, sm.min_dihedral_after);
  EXPECT_EQ(art.quality->max_radius_edge, q.max_radius_edge);
  EXPECT_EQ(art.quality->min_dihedral_deg, q.min_dihedral_deg);
  EXPECT_EQ(art.quality->min_boundary_planar_deg, q.min_boundary_planar_deg);
  EXPECT_EQ(art.hausdorff->mesh_to_surface, h.mesh_to_surface);
  EXPECT_EQ(art.hausdorff->surface_to_mesh, h.surface_to_mesh);
  // The manifest's work count repeats at the same oracle thread count.
  EXPECT_GT(h.triangle_tests, 0u);
  EXPECT_EQ(art.metrics.u64("hausdorff.triangle_tests"), h.triangle_tests);
}

TEST(ServeMeshJob, PreSetCancelTokenAbortsRefinement) {
  std::atomic<bool> cancel{true};
  MeshJob job(small_ball_spec());
  job.set_cancel(&cancel);
  const JobArtifacts& art = job.run();
  EXPECT_FALSE(art.ok);
  EXPECT_TRUE(art.cancelled);
  EXPECT_TRUE(art.outcome.cancelled);
  EXPECT_FALSE(art.outcome.completed);
}

TEST(ServeMeshJob, InputErrorsAreReported) {
  JobSpec spec;
  spec.input_path = "/nonexistent/volume.mha";
  MeshJob job(std::move(spec));
  EXPECT_FALSE(job.prepare());
  EXPECT_NE(job.artifacts().error.find("failed to read"), std::string::npos);
}

// Meshing the same image twice in one process — the second run on the
// blocks the first one returned to the arena pool — must produce exactly
// the mesh the first run produced on fresh blocks.
TEST(ServeMeshJob, WarmArenaSecondRunIsByteIdentical) {
  const LabeledImage3D img = phantom::ball(24);
  // Single-threaded refinement is deterministic, so any divergence between
  // these runs is state leaking through the recycled arena blocks.
  // (Multi-threaded runs differ run-to-run by scheduling alone, which
  // would mask exactly the leak this test exists to catch.)
  auto run_once = [&] {
    MeshingOptions opt;
    opt.threads = 1;
    opt.delta = 1.2;
    opt.rng_seed = 7;
    Refiner r(img, opt);
    const RefineOutcome out = r.refine();
    EXPECT_TRUE(out.completed);
    return check::snapshot_hash(check::snapshot_mesh(r.mesh()));
  };
  ArenaPool::instance().clear();
  const std::uint64_t cold = run_once();  // fresh blocks, returned at the end
  const ArenaPool::Stats before = ArenaPool::instance().stats();
  const std::uint64_t warm = run_once();  // meshes on recycled blocks
  const ArenaPool::Stats after = ArenaPool::instance().stats();
  EXPECT_EQ(cold, warm);
  const std::uint64_t acquires = after.acquires - before.acquires;
  EXPECT_GT(acquires, 0u);
  EXPECT_EQ(after.reuses - before.reuses, acquires)
      << "every chunk of the second run must come from the pool";

  // The parallel path reuses blocks too; it cannot be byte-compared (the
  // speculative interleaving is nondeterministic) but must stay sound.
  MeshingOptions popt;
  popt.threads = 2;
  popt.delta = 1.2;
  Refiner pr(img, popt);
  EXPECT_TRUE(pr.refine().completed);
}

TEST(ServeMeshJob, WarmEdtCacheMatchesColdRun) {
  EdtCache cache(std::size_t{64} << 20);
  auto run = [&](bool use_cache) {
    MeshJob job(small_ball_spec());
    if (use_cache) job.set_edt_cache(&cache);
    const JobArtifacts& art = job.run();
    EXPECT_TRUE(art.ok) << art.error;
    return std::tuple<std::size_t, std::size_t, std::size_t, bool>(
        art.mesh.num_tets(), art.mesh.num_points(),
        art.mesh.boundary_tris.size(), art.edt_cache_hit);
  };
  const auto cold = run(false);
  const auto miss = run(true);
  const auto hit = run(true);
  EXPECT_FALSE(std::get<3>(cold));
  EXPECT_FALSE(std::get<3>(miss));
  EXPECT_TRUE(std::get<3>(hit));
  EXPECT_EQ(std::get<0>(cold), std::get<0>(miss));
  EXPECT_EQ(std::get<0>(cold), std::get<0>(hit));
  EXPECT_EQ(std::get<1>(cold), std::get<1>(hit));
  EXPECT_EQ(std::get<2>(cold), std::get<2>(hit));
}

// ---------- MeshService ----------

ServiceConfig small_config(int executors, std::size_t queue_cap) {
  ServiceConfig cfg;
  cfg.executors = executors;
  cfg.queue_capacity = queue_cap;
  cfg.default_threads = 1;
  cfg.edt_cache_bytes = std::size_t{64} << 20;
  return cfg;
}

/// Blocks the service's only executor until released.
struct ExecutorGate {
  std::promise<void> entered;
  std::promise<void> release;  // must precede release_future (init order)
  std::shared_future<void> release_future;
  ExecutorGate() : release_future(release.get_future().share()) {}
  std::function<void()> hook() {
    return [this] {
      entered.set_value();
      release_future.wait();
    };
  }
};

TEST(ServeService, OverloadIsRejectedExplicitly) {
  MeshService svc(small_config(/*executors=*/1, /*queue_cap=*/2));
  ExecutorGate gate;
  const auto blocker =
      svc.submit(small_ball_spec(16), Priority::Normal, gate.hook());
  ASSERT_TRUE(blocker.accepted);
  gate.entered.get_future().wait();  // executor is now held

  const auto q1 = svc.submit(small_ball_spec(16), Priority::Normal);
  const auto q2 = svc.submit(small_ball_spec(16), Priority::Normal);
  ASSERT_TRUE(q1.accepted);
  ASSERT_TRUE(q2.accepted);
  const auto over = svc.submit(small_ball_spec(16), Priority::High);
  EXPECT_FALSE(over.accepted);
  EXPECT_STREQ(over.reject_code, kRejectedOverload);

  gate.release.set_value();
  for (const auto id : {blocker.id, q1.id, q2.id}) {
    const auto rec = svc.wait(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->current_state(), JobState::Done) << rec->error;
  }
  const auto reg = svc.metrics_snapshot();
  EXPECT_EQ(reg.u64("serve.jobs.accepted"), 3u);
  EXPECT_EQ(reg.u64("serve.jobs.rejected"), 1u);
  EXPECT_EQ(reg.u64("serve.jobs.completed"), 3u);
  EXPECT_EQ(reg.u64("serve.queue.depth"), 0u);
  EXPECT_EQ(reg.u64("serve.latency.mesh.count"), 3u);
  svc.drain();
  EXPECT_FALSE(svc.submit(small_ball_spec(16), Priority::Normal).accepted);
}

TEST(ServeService, CancelBeforeStart) {
  MeshService svc(small_config(1, 8));
  ExecutorGate gate;
  const auto blocker =
      svc.submit(small_ball_spec(16), Priority::Normal, gate.hook());
  ASSERT_TRUE(blocker.accepted);
  gate.entered.get_future().wait();

  const auto victim = svc.submit(small_ball_spec(16), Priority::Normal);
  ASSERT_TRUE(victim.accepted);
  EXPECT_TRUE(svc.cancel(victim.id));
  const auto rec = svc.wait(victim.id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->current_state(), JobState::Cancelled);
  EXPECT_EQ(rec->error, "cancelled before start");
  EXPECT_TRUE(rec->manifest_json.empty());  // never ran

  EXPECT_FALSE(svc.cancel(victim.id));       // already terminal
  EXPECT_FALSE(svc.cancel(999999));          // unknown id
  gate.release.set_value();
  svc.wait(blocker.id);
  EXPECT_EQ(svc.metrics_snapshot().u64("serve.jobs.cancelled"), 1u);
  svc.drain();
}

TEST(ServeService, CancelMidRefinement) {
  MeshService svc(small_config(1, 4));
  // Big enough that refinement runs for seconds: the cancel token lands
  // mid-refine at a loop boundary, long before completion.
  JobSpec spec = small_ball_spec(64, 2);
  spec.mesh.delta = 0.5;
  const auto sub = svc.submit(std::move(spec), Priority::Normal);
  ASSERT_TRUE(sub.accepted);
  const auto rec = svc.find(sub.id);
  ASSERT_NE(rec, nullptr);
  while (rec->current_state() == JobState::Queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rec->current_state(), JobState::Running);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(svc.cancel(sub.id));
  svc.wait(sub.id);
  EXPECT_EQ(rec->current_state(), JobState::Cancelled);
  EXPECT_FALSE(rec->manifest_json.empty());  // it ran; manifest records it
  const JsonValue man = json_parse(rec->manifest_json);
  EXPECT_TRUE(man["metrics"]["refine.cancelled"].as_bool());
  EXPECT_FALSE(man["metrics"]["refine.completed"].as_bool(true));
  svc.drain();
}

TEST(ServeService, ShutdownNowCancelsBacklog) {
  MeshService svc(small_config(1, 8));
  ExecutorGate gate;
  const auto blocker =
      svc.submit(small_ball_spec(16), Priority::Normal, gate.hook());
  ASSERT_TRUE(blocker.accepted);
  gate.entered.get_future().wait();
  const auto queued = svc.submit(small_ball_spec(16), Priority::Normal);
  ASSERT_TRUE(queued.accepted);

  gate.release.set_value();
  svc.shutdown_now();
  const auto rec = svc.find(queued.id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->current_state(), JobState::Cancelled);
}

// Cross-job isolation: concurrent jobs over shared caches and warm arenas
// must each produce exactly the mesh a solo run produces. Run under TSan
// via the `sanitize` label.
TEST(ServeService, ConcurrentSubmittersSeeIsolatedResults) {
  struct Reference {
    std::string phantom;
    int size;
    std::uint64_t tets, points, tris;
  };
  std::vector<Reference> refs = {{"ball", 24, 0, 0, 0},
                                 {"shells", 24, 0, 0, 0}};
  for (auto& r : refs) {
    JobSpec spec;
    spec.phantom = r.phantom;
    spec.phantom_size = r.size;
    spec.mesh.threads = 1;  // single-threaded refinement is deterministic
    MeshJob job(std::move(spec));
    const JobArtifacts& art = job.run();
    ASSERT_TRUE(art.ok) << art.error;
    r.tets = art.mesh.num_tets();
    r.points = art.mesh.num_points();
    r.tris = art.mesh.boundary_tris.size();
  }

  MeshService svc(small_config(/*executors=*/4, /*queue_cap=*/64));
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 3;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> ids(kSubmitters);
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsEach; ++j) {
        const Reference& r = refs[(t + j) % refs.size()];
        JobSpec spec;
        spec.phantom = r.phantom;
        spec.phantom_size = r.size;
        spec.mesh.threads = 1;
        const auto res = svc.submit(std::move(spec), Priority::Normal);
        if (res.accepted) ids[t].push_back(res.id);
      }
    });
  }
  for (auto& t : threads) t.join();

  int checked = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (std::size_t j = 0; j < ids[t].size(); ++j) {
      const auto rec = svc.wait(ids[t][j]);
      ASSERT_NE(rec, nullptr);
      ASSERT_EQ(rec->current_state(), JobState::Done) << rec->error;
      const Reference& r = refs[(t + static_cast<int>(j)) % refs.size()];
      const JsonValue man = json_parse(rec->manifest_json);
      ASSERT_TRUE(man.is_object());
      EXPECT_EQ(man["metrics"]["mesh.tets"].as_int(),
                static_cast<std::int64_t>(r.tets))
          << r.phantom;
      EXPECT_EQ(man["metrics"]["mesh.points"].as_int(),
                static_cast<std::int64_t>(r.points))
          << r.phantom;
      EXPECT_EQ(man["metrics"]["mesh.boundary_tris"].as_int(),
                static_cast<std::int64_t>(r.tris))
          << r.phantom;
      ++checked;
    }
  }
  EXPECT_EQ(checked, kSubmitters * kJobsEach);

  const auto reg = svc.metrics_snapshot();
  EXPECT_EQ(reg.u64("serve.jobs.completed"),
            static_cast<std::uint64_t>(checked));
  // Two distinct images, twelve jobs: the EDT ran at most a handful of
  // times (first miss per image, plus any concurrent-miss coalescing).
  EXPECT_GE(reg.u64("serve.edt_cache.hits") +
                reg.u64("serve.edt_cache.coalesced"),
            static_cast<std::uint64_t>(checked - 4));
  svc.drain();
}

// ---------- socket round-trip ----------

TEST(ServeSocket, FullProtocolRoundTrip) {
  const std::string sock =
      "/tmp/pi2m_serve_test_" + std::to_string(::getpid()) + ".sock";
  MeshService svc(small_config(2, 16));
  SocketServer server(svc, sock);
  ASSERT_TRUE(server.ok()) << server.error();
  std::thread loop([&] { server.serve(); });

  std::string resp, err;
  ASSERT_TRUE(request_over_socket(sock, R"({"op":"ping"})", &resp, &err))
      << err;
  EXPECT_TRUE(json_parse(resp)["ok"].as_bool());

  // Submit an inline volume (exercises base64 + image reconstruction).
  const LabeledImage3D ball = phantom::ball(16);
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("op", "submit")
      .kv("priority", "high")
      .key("job")
      .begin_object()
      .key("volume")
      .begin_object()
      .kv("nx", 16)
      .kv("ny", 16)
      .kv("nz", 16)
      .kv("labels_b64",
          base64_encode(ball.raw().data(), ball.raw().size()))
      .end_object()
      .end_object()
      .end_object();
  ASSERT_TRUE(request_over_socket(sock, w.str(), &resp, &err)) << err;
  const JsonValue sub = json_parse(resp);
  ASSERT_TRUE(sub["ok"].as_bool()) << resp;
  const auto id = static_cast<std::uint64_t>(sub["id"].as_int());

  // Poll status to terminal; then the result carries the manifest.
  std::string state;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(request_over_socket(
        sock, R"({"op":"status","id":)" + std::to_string(id) + "}", &resp,
        &err))
        << err;
    state = json_parse(resp)["state"].as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, "done");
  ASSERT_TRUE(request_over_socket(
      sock, R"({"op":"result","id":)" + std::to_string(id) + "}", &resp,
      &err))
      << err;
  const JsonValue result = json_parse(resp);
  ASSERT_TRUE(result["ok"].as_bool()) << resp;
  EXPECT_EQ(result["manifest"]["schema"].as_string(), "pi2m-manifest");
  EXPECT_GT(result["manifest"]["metrics"]["mesh.tets"].as_int(), 0);

  // Unknown id and premature result fetch produce protocol errors.
  ASSERT_TRUE(
      request_over_socket(sock, R"({"op":"result","id":424242})", &resp,
                          &err));
  EXPECT_EQ(json_parse(resp)["code"].as_string(), kNotFound);
  ASSERT_TRUE(request_over_socket(sock, R"({"op":"nope"})", &resp, &err));
  EXPECT_EQ(json_parse(resp)["code"].as_string(), kBadRequest);

  ASSERT_TRUE(request_over_socket(sock, R"({"op":"stats"})", &resp, &err));
  const JsonValue stats = json_parse(resp);
  EXPECT_GE(stats["metrics"]["serve.jobs.completed"].as_int(), 1);

  ASSERT_TRUE(request_over_socket(sock, R"({"op":"shutdown"})", &resp, &err));
  EXPECT_TRUE(json_parse(resp)["ok"].as_bool());
  loop.join();
  EXPECT_TRUE(server.drained());
  // After drain, the service refuses new work.
  EXPECT_FALSE(svc.submit(small_ball_spec(16), Priority::Normal).accepted);
}

}  // namespace
