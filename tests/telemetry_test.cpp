// Tests for the telemetry subsystem: event rings + spans, overflow
// behaviour, multithreaded emission (run under TSan via the `sanitize`
// label), Chrome trace export, the metrics registry, and the run manifest.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/simd.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_manifest.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pi2m::telemetry;

// --- minimal JSON validity checker (recursive descent, RFC 8259 shape) ---

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class TelemetryTest : public ::testing::Test {
 protected:
  // Every test starts from a closed session; rings from prior tests are
  // invalidated by the next begin().
  void TearDown() override { end(); }
};

#if PI2M_TELEMETRY_ENABLED

TEST_F(TelemetryTest, SpanNestingAndOrdering) {
  begin(1024);
  set_thread_name("tester");
  {
    Span outer("outer", "test");
    instant("mark", "test", "value", 7);
    {
      Span inner("inner", "test");
      inner.set_arg("n", 3);
    }
  }
  end();

  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 3u);
  // snapshot() sorts by start timestamp: outer starts first, then the
  // instant, then the inner span.
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[1].name, "mark");
  EXPECT_TRUE(evs[1].is_instant);
  EXPECT_EQ(evs[1].arg_name, "value");
  EXPECT_EQ(evs[1].arg, 7u);
  EXPECT_EQ(evs[2].name, "inner");
  EXPECT_EQ(evs[2].arg, 3u);
  EXPECT_EQ(evs[0].thread, "tester");
  // Time containment: inner lies inside outer (what Perfetto nests by).
  EXPECT_GE(evs[2].ts_ns, evs[0].ts_ns);
  EXPECT_LE(evs[2].ts_ns + evs[2].dur_ns, evs[0].ts_ns + evs[0].dur_ns);
}

TEST_F(TelemetryTest, SpanCloseEndsEarlyAndIsIdempotent) {
  begin(64);
  {
    Span s("early", "test");
    s.close();
    s.close();  // second close records nothing
    instant("after_close", "test");
  }  // destructor after close() records nothing either
  end();
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "early");
  // The span ended at close(), before the instant was emitted.
  EXPECT_LE(evs[0].ts_ns + evs[0].dur_ns, evs[1].ts_ns);
}

TEST_F(TelemetryTest, NoSessionMeansNoEvents) {
  // Events of a previously *ended* session stay exportable, so only the
  // delta matters: emission without an active session buffers nothing.
  ASSERT_FALSE(active());
  const std::size_t before = event_count();
  instant("dropped", "test");
  { Span s("dropped_span", "test"); }
  EXPECT_EQ(event_count(), before);
}

TEST_F(TelemetryTest, EmissionAfterEndIsIgnored) {
  begin(64);
  instant("kept", "test");
  end();
  instant("late", "test");
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "kept");
}

TEST_F(TelemetryTest, RingOverflowDropsOldest) {
  begin(64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    instant("tick", "test", "i", i);
  }
  end();
  EXPECT_EQ(event_count(), 64u);
  EXPECT_EQ(dropped_events(), 200u - 64u);
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 64u);
  // Drop-oldest: the survivors are exactly the last 64 emissions, in order.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].arg, 200u - 64u + i);
  }
}

TEST_F(TelemetryTest, SessionRestartResetsBuffers) {
  begin(64);
  for (int i = 0; i < 100; ++i) instant("first", "test");
  end();
  EXPECT_GT(dropped_events(), 0u);

  begin(64);
  EXPECT_EQ(event_count(), 0u);
  EXPECT_EQ(dropped_events(), 0u);
  instant("second", "test");
  end();
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "second");
}

TEST_F(TelemetryTest, MultithreadedEmission) {
  // Run under TSan via `ctest -L sanitize`: concurrent emission into
  // per-thread rings must be race-free.
  constexpr int kThreads = 4;
  constexpr int kEvents = 1000;
  begin(4096);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      set_thread_name("emitter " + std::to_string(t));
      for (int i = 0; i < kEvents; ++i) {
        Span s("work", "test");
        s.set_arg("i", static_cast<std::uint64_t>(i));
        if (i % 3 == 0) instant("tick", "test");
      }
    });
  }
  for (auto& th : pool) th.join();
  end();

  const auto evs = snapshot();
  std::size_t spans = 0, ticks = 0;
  for (const auto& e : evs) {
    if (e.name == "work") ++spans;
    if (e.name == "tick") ++ticks;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads) * kEvents);
  EXPECT_EQ(ticks, static_cast<std::size_t>(kThreads) * ((kEvents + 2) / 3));
  EXPECT_EQ(dropped_events(), 0u);
  // Export is globally sorted by timestamp.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GE(evs[i].ts_ns, evs[i - 1].ts_ns);
  }
}

TEST_F(TelemetryTest, ChromeTraceParsesAndIsNonEmpty) {
  begin(256);
  set_thread_name("main");
  {
    Span s("phase.test", "phase");
    instant("event", "test", "arg", 42);
  }
  end();

  const std::string path = ::testing::TempDir() + "pi2m_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(path));
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  // Trace-event essentials: the array, a complete event, an instant, the
  // thread-name metadata, and the drop counter.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"phase.test\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"main\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\":0"), std::string::npos);
}

#else  // !PI2M_TELEMETRY_ENABLED

TEST_F(TelemetryTest, CompiledOutEmissionIsInert) {
  begin(64);
  instant("nothing", "test");
  { Span s("nothing_span", "test"); }
  end();
  EXPECT_EQ(event_count(), 0u);
  // The export API still produces valid (empty) JSON.
  const std::string text = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
}

#endif  // PI2M_TELEMETRY_ENABLED

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, KindsAndFallbacks) {
  MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.set("a.count", 41);               // integral -> U64
  r.set("a.ratio", 0.5);              // double  -> F64
  r.set("a.ok", true);                // bool    -> Bool
  r.set_u64("a.big", std::uint64_t{1} << 40);
  r.set("a.negative", -3);            // clamps to 0
  EXPECT_EQ(r.size(), 5u);

  EXPECT_EQ(r.u64("a.count"), 41u);
  EXPECT_DOUBLE_EQ(r.f64("a.ratio"), 0.5);
  EXPECT_TRUE(r.flag("a.ok"));
  EXPECT_EQ(r.u64("a.big"), std::uint64_t{1} << 40);
  EXPECT_EQ(r.u64("a.negative"), 0u);

  // Cross-kind numeric views and fallbacks for absent names.
  EXPECT_DOUBLE_EQ(r.f64("a.count"), 41.0);
  EXPECT_EQ(r.u64("a.ok"), 1u);
  EXPECT_EQ(r.u64("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(r.f64("missing", 2.5), 2.5);
  EXPECT_TRUE(r.flag("missing", true));
  EXPECT_FALSE(r.has("missing"));

  // Overwrite changes kind.
  r.set("a.count", 1.5);
  EXPECT_DOUBLE_EQ(r.f64("a.count"), 1.5);
}

TEST(MetricsRegistryTest, MergeAndJson) {
  MetricsRegistry a, b;
  a.set("x", 1);
  a.set("y", 2);
  b.set("y", 3);  // b wins the tie on merge
  b.set("z", 0.25);
  a.merge(b);
  EXPECT_EQ(a.u64("y"), 3u);
  EXPECT_EQ(a.size(), 3u);

  const std::string json = a.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"x\":1"), std::string::npos);
  EXPECT_NE(json.find("\"z\":0.25"), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndNonFinite) {
  JsonWriter w;
  w.begin_object();
  w.key("text");
  w.value(std::string_view("a\"b\\c\nd\x01"));
  w.key("inf");
  w.value(1.0 / 0.0);
  w.key("nan");
  w.value(0.0 / 0.0);
  w.end_object();
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"inf\":\"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"nan\":\"nan\""), std::string::npos);
}

// --- RunManifest ----------------------------------------------------------

TEST(RunManifestTest, WriteAndSchema) {
  RunManifest man;
  man.tool = "telemetry_test";
  man.set_config("threads", 4);
  man.set_config("delta", 1.5);
  man.set_config("phantom", "ball");
  man.add_phase("edt", 0.25);
  man.add_phase("refine", 1.75);
  man.metrics.set("refine.operations", 1234);
  man.notes = "unit test";

  const std::string path = ::testing::TempDir() + "pi2m_manifest_test.json";
  ASSERT_TRUE(man.write(path));
  const std::string text = slurp(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"schema\":\"pi2m-manifest\""), std::string::npos);
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"telemetry_test\""), std::string::npos);
  EXPECT_NE(text.find("\"threads\":\"4\""), std::string::npos);
  EXPECT_NE(text.find("\"edt\":0.25"), std::string::npos);
  EXPECT_NE(text.find("\"refine.operations\":1234"), std::string::npos);
  EXPECT_NE(text.find("\"notes\":\"unit test\""), std::string::npos);
  EXPECT_NE(text.find("\"git\":"), std::string::npos);
  EXPECT_NE(text.find("\"timestamp\":"), std::string::npos);
  EXPECT_NE(text.find("\"hardware_threads\":"), std::string::npos);

  // Phase order is insertion order (edt before refine).
  EXPECT_LT(text.find("\"edt\""), text.find("\"refine\""));
}

TEST(HostFingerprint, SimdLevelMatchesCpuid) {
  // Benchmark fingerprints record the host's vector level by name.
  namespace simd = pi2m::simd;
#if defined(__x86_64__)
  EXPECT_EQ(simd::active_level(), __builtin_cpu_supports("avx2")
                                      ? simd::Level::kAvx2
                                      : simd::Level::kScalar);
#else
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
#endif
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

}  // namespace
