// Low-overhead event tracing: per-thread ring buffers + Chrome trace export.
//
// Model
//  * A *session* is opened with begin() and closed with end(). While a
//    session is active, threads emit events into their own fixed-capacity
//    ring buffer (single producer, no locks, no allocation on the hot
//    path); overflow overwrites the oldest events and bumps a drop counter
//    that the exporters surface.
//  * Two event shapes: *spans* (RAII `Span`, recorded as one complete event
//    with start + duration when the scope exits) and *instants* (a point in
//    time with an optional integer argument). Span nesting needs no
//    bookkeeping — Chrome/Perfetto nest complete events on the same thread
//    lane by time containment.
//  * After the session ends (or the emitting threads have quiesced), the
//    rings are merged into one timeline: snapshot() for programmatic
//    access, chrome_trace_json()/write_chrome_trace() for the
//    chrome://tracing / Perfetto "traceEvents" format.
//
// Gating: with no active session, emission is one relaxed atomic load and
// a predictable branch — cheap enough to leave the probes compiled into the
// hot paths (the ≤2% overhead budget in DESIGN.md).
//
// Threading contract: begin()/end() must not race with emission (in
// practice: call them from the orchestrating thread before spawning /
// after joining workers). Emission itself is fully concurrent — each
// thread writes only its own ring. Export requires emitters to have
// quiesced (joined, or the session ended).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pi2m::telemetry {

// --- session control & export ----------------------------------------------

/// Opens a tracing session. Each emitting thread gets a ring of
/// `events_per_thread` slots (~56 B each). Re-opening a session resets all
/// rings and drop counters.
void begin(std::size_t events_per_thread = std::size_t{1} << 16);

/// Closes the session: emission stops, buffered events stay exportable.
void end();

/// True while a session is active (the run-time gate).
bool active();

/// Names the calling thread's lane in the exported trace ("worker 3").
/// No-op without an active session.
void set_thread_name(const std::string& name);

/// One merged, timestamp-sorted view of every buffered event.
struct TraceEventView {
  std::string thread;    ///< lane name ("worker 0", or "thread N")
  std::uint32_t tid = 0; ///< lane id (registration order)
  std::string name;
  std::string category;
  std::string arg_name;  ///< empty when the event carries no argument
  std::uint64_t ts_ns = 0;   ///< since session begin()
  std::uint64_t dur_ns = 0;  ///< 0 for instants
  std::uint64_t arg = 0;
  bool is_instant = false;
};
std::vector<TraceEventView> snapshot();

/// Events overwritten by ring overflow since begin(), summed over threads.
std::uint64_t dropped_events();

/// Events currently buffered (post-drop), summed over threads.
std::size_t event_count();

/// Chrome trace-event JSON ("traceEvents" array object format) of the
/// buffered events, with thread-name metadata and the drop counter in
/// "otherData".
std::string chrome_trace_json();
bool write_chrome_trace(const std::string& path);

// --- emission -------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
/// Slow paths (ring append); called only when a session is active.
void emit_complete(const char* name, const char* category,
                   std::uint64_t start_ns, const char* arg_name,
                   std::uint64_t arg);
void emit_instant(const char* name, const char* category,
                  const char* arg_name, std::uint64_t arg);
}  // namespace detail

/// Point event. All strings must have static storage duration (string
/// literals): the ring stores the pointers.
inline void instant(const char* name, const char* category = "pi2m",
                    const char* arg_name = nullptr, std::uint64_t arg = 0) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::emit_instant(name, category, arg_name, arg);
  }
}

/// RAII span: records one complete event covering the scope's lifetime.
/// Strings must have static storage duration.
class Span {
 public:
  explicit Span(const char* name, const char* category = "pi2m")
      : name_(detail::g_enabled.load(std::memory_order_relaxed) ? name
                                                                : nullptr),
        category_(category) {
    if (name_) start_ns_ = detail::now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (name_) {
      detail::emit_complete(name_, category_, start_ns_, arg_name_, arg_);
    }
  }

  /// Attaches a numeric argument reported with the completed span
  /// (`arg_name` must be a string literal).
  void set_arg(const char* arg_name, std::uint64_t arg) {
    arg_name_ = arg_name;
    arg_ = arg;
  }

  /// Ends the span before scope exit (for back-to-back phases sharing one
  /// scope). Idempotent; the destructor then records nothing.
  void close() {
    if (name_) {
      detail::emit_complete(name_, category_, start_ns_, arg_name_, arg_);
      name_ = nullptr;
    }
  }

 private:
  const char* name_;  ///< nullptr => tracing was off at construction
  const char* category_;
  const char* arg_name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

}  // namespace pi2m::telemetry

// Scoped-span convenience macro (unique variable name per line).
#define PI2M_TRACE_CONCAT2(a, b) a##b
#define PI2M_TRACE_CONCAT(a, b) PI2M_TRACE_CONCAT2(a, b)
#define PI2M_TRACE_SPAN(name, category) \
  ::pi2m::telemetry::Span PI2M_TRACE_CONCAT(pi2m_tspan_, __LINE__)(name, category)
