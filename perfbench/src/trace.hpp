// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each library
// layer (nothing inside the library is instrumented). Each span carries the
// job it belongs to and its parent span, so a layer's self time is its
// duration minus the part its children cover. Spans stay in memory and are
// written out once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span id 0 means "no parent".
using SpanId = std::uint32_t;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now; returns 0 (and records nothing) when disabled.
  SpanId begin(std::uint64_t job, SpanId parent, const char* name);
  void end(SpanId id);
  /// Records a span whose interval was measured elsewhere (monotonic
  /// seconds, the clock of pi2m::now_sec()).
  SpanId add(std::uint64_t job, SpanId parent, const char* name, double t0,
             double t1);

  /// Self time per span name for one job: each span's duration minus the
  /// durations of its direct children, summed over same-named spans.
  [[nodiscard]] std::map<std::string, double> self_times(
      std::uint64_t job) const;

  /// Chrome trace-event JSON (one lane per job).
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    std::uint64_t job;
    SpanId parent;
    const char* name;  ///< string literal
    double t0, t1;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;  ///< span id = index + 1
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, std::uint64_t job, SpanId parent, const char* name)
      : t_(t), id_(t.begin(job, parent, name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Tracer& t_;
  SpanId id_;
};

}  // namespace perfbench
