#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "telemetry/json_writer.hpp"

namespace pi2m::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One event slot. Strings are static-storage pointers (string literals),
/// so a slot is POD and overwriting on ring wrap needs no destruction.
struct Event {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg_name = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  bool is_instant = false;
};

/// Single-producer ring: only the owning thread writes `ring`/`head`/`name`.
/// Readers (export) run strictly after the producers quiesced, so plain
/// fields suffice and the hot path is a store + increment.
struct ThreadBuffer {
  std::vector<Event> ring;
  std::uint64_t head = 0;      ///< events ever pushed this session
  std::uint64_t session = 0;   ///< session these contents belong to
  std::uint32_t tid = 0;
  std::string name;
};

struct Registry {
  std::mutex mu;  ///< guards `buffers`/`free_buffers` (registration/export)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  /// Buffers whose owning thread exited, available for adoption by new
  /// threads. Without this a long-lived process (the meshing daemon) that
  /// traces per-request worker pools would register a fresh multi-MB ring
  /// for every worker of every job, unbounded; with it the footprint is
  /// capped by the peak number of *concurrently* live traced threads.
  std::vector<ThreadBuffer*> free_buffers;
  std::atomic<std::uint64_t> session{0};
  std::atomic<std::uint64_t> t0_ns{0};
  std::atomic<std::size_t> capacity{std::size_t{1} << 16};
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

/// Thread-exit hook: returns the thread's buffer to the free list. The
/// buffer (and its recorded events) stays in Registry::buffers for export;
/// only *ownership* is recycled, and the next adopting thread re-uses the
/// lane sequentially — the single-producer invariant holds because the
/// previous owner has exited before adoption (ordered by Registry::mu).
struct BufferReleaser {
  ~BufferReleaser() {
    if (tl_buffer == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.free_buffers.push_back(tl_buffer);
    tl_buffer = nullptr;
  }
};
thread_local BufferReleaser tl_releaser;

ThreadBuffer& local_buffer() {
  Registry& r = registry();
  ThreadBuffer* b = tl_buffer;
  if (b == nullptr) {
    std::lock_guard<std::mutex> lk(r.mu);
    // Adopt only lanes whose contents belong to a *finished* session.
    // Sharing a lane within the live session would let a late thread
    // overwrite the previous owner's events (ring pressure → drops) and
    // its thread attribution; such lanes stay parked until the next
    // session resets them.
    const std::uint64_t live = r.session.load(std::memory_order_acquire);
    for (std::size_t i = r.free_buffers.size(); i-- > 0;) {
      if (r.free_buffers[i]->session != live) {
        b = r.free_buffers[i];
        r.free_buffers.erase(r.free_buffers.begin() +
                             static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (b == nullptr) {
      auto owned = std::make_unique<ThreadBuffer>();
      b = owned.get();
      b->tid = static_cast<std::uint32_t>(r.buffers.size());
      b->name = "thread " + std::to_string(b->tid);
      r.buffers.push_back(std::move(owned));
    }
    tl_buffer = b;
    (void)tl_releaser;  // ODR-use: arm the thread-exit release hook
  }
  const std::uint64_t sid = r.session.load(std::memory_order_acquire);
  if (b->session != sid || b->ring.empty()) {
    b->ring.assign(r.capacity.load(std::memory_order_relaxed), Event{});
    b->head = 0;
    b->session = sid;
  }
  return *b;
}

void push(const Event& e) {
  ThreadBuffer& b = local_buffer();
  b.ring[b.head % b.ring.size()] = e;
  ++b.head;
}

std::uint64_t rel_ts(std::uint64_t abs_ns) {
  const std::uint64_t t0 =
      registry().t0_ns.load(std::memory_order_relaxed);
  return abs_ns > t0 ? abs_ns - t0 : 0;
}

}  // namespace

namespace detail {

void emit_complete(const char* name, const char* category,
                   std::uint64_t start_ns, const char* arg_name,
                   std::uint64_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;  // ended mid-span
  Event e;
  e.name = name;
  e.category = category;
  e.arg_name = arg_name;
  e.ts_ns = rel_ts(start_ns);
  const std::uint64_t end_ns = rel_ts(now_ns());
  e.dur_ns = end_ns > e.ts_ns ? end_ns - e.ts_ns : 0;
  e.arg = arg;
  push(e);
}

void emit_instant(const char* name, const char* category,
                  const char* arg_name, std::uint64_t arg) {
  Event e;
  e.name = name;
  e.category = category;
  e.arg_name = arg_name;
  e.ts_ns = rel_ts(now_ns());
  e.arg = arg;
  e.is_instant = true;
  push(e);
}

}  // namespace detail

void begin(std::size_t events_per_thread) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.capacity.store(std::max<std::size_t>(events_per_thread, 8),
                   std::memory_order_relaxed);
  r.t0_ns.store(detail::now_ns(), std::memory_order_relaxed);
  // Bumping the session invalidates every buffer lazily: each thread
  // re-initializes its own ring on its first event (no cross-thread writes).
  r.session.fetch_add(1, std::memory_order_release);
  detail::g_enabled.store(true, std::memory_order_release);
}

void end() { detail::g_enabled.store(false, std::memory_order_release); }

bool active() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  if (!active()) return;
  local_buffer().name = name;
}

namespace {

/// Buffers belonging to the current session, with their buffered window.
template <typename Fn>
void for_each_current_event(Fn&& fn) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const std::uint64_t sid = r.session.load(std::memory_order_acquire);
  for (const auto& b : r.buffers) {
    if (b->session != sid || b->ring.empty()) continue;
    const std::uint64_t cap = b->ring.size();
    const std::uint64_t count = std::min(b->head, cap);
    for (std::uint64_t i = b->head - count; i < b->head; ++i) {
      fn(*b, b->ring[i % cap]);
    }
  }
}

}  // namespace

std::vector<TraceEventView> snapshot() {
  std::vector<TraceEventView> out;
  for_each_current_event([&](const ThreadBuffer& b, const Event& e) {
    TraceEventView v;
    v.thread = b.name;
    v.tid = b.tid;
    v.name = e.name ? e.name : "";
    v.category = e.category ? e.category : "";
    v.arg_name = e.arg_name ? e.arg_name : "";
    v.ts_ns = e.ts_ns;
    v.dur_ns = e.dur_ns;
    v.arg = e.arg;
    v.is_instant = e.is_instant;
    out.push_back(std::move(v));
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEventView& a, const TraceEventView& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::uint64_t dropped_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const std::uint64_t sid = r.session.load(std::memory_order_acquire);
  std::uint64_t dropped = 0;
  for (const auto& b : r.buffers) {
    if (b->session != sid || b->ring.empty()) continue;
    const std::uint64_t cap = b->ring.size();
    if (b->head > cap) dropped += b->head - cap;
  }
  return dropped;
}

std::size_t event_count() {
  std::size_t n = 0;
  for_each_current_event([&](const ThreadBuffer&, const Event&) { ++n; });
  return n;
}

std::string chrome_trace_json() {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Lane metadata first: process name + one thread_name record per lane.
  w.begin_object()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", 1)
      .kv("tid", 0)
      .key("args")
      .begin_object()
      .kv("name", "pi2m")
      .end_object()
      .end_object();
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    const std::uint64_t sid = r.session.load(std::memory_order_acquire);
    for (const auto& b : r.buffers) {
      if (b->session != sid || b->ring.empty()) continue;
      w.begin_object()
          .kv("name", "thread_name")
          .kv("ph", "M")
          .kv("pid", 1)
          .kv("tid", b->tid)
          .key("args")
          .begin_object()
          .kv("name", b->name)
          .end_object()
          .end_object();
    }
  }

  for (const TraceEventView& e : snapshot()) {
    w.begin_object()
        .kv("name", e.name)
        .kv("cat", e.category)
        .kv("ph", e.is_instant ? "i" : "X")
        .kv("pid", 1)
        .kv("tid", e.tid)
        .kv("ts", static_cast<double>(e.ts_ns) * 1e-3);  // microseconds
    if (e.is_instant) {
      w.kv("s", "t");  // thread-scoped instant
    } else {
      w.kv("dur", static_cast<double>(e.dur_ns) * 1e-3);
    }
    if (!e.arg_name.empty()) {
      w.key("args").begin_object().kv(e.arg_name, e.arg).end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData")
      .begin_object()
      .kv("schema", "pi2m-trace/1")
      .kv("dropped_events", dropped_events())
      .end_object();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pi2m::telemetry
