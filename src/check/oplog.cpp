#include "check/oplog.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace pi2m::check {

namespace detail {

std::atomic<bool> g_recording{false};

namespace {

/// Per-thread append-only record buffer. Registered once per thread under a
/// mutex; appends are uncontended afterwards. Buffers live until the next
/// begin() so snapshot() can run after the writer threads have exited.
struct Buffer {
  std::vector<OpRecord> records;
  std::uint8_t current_rule = 0;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::atomic<std::uint64_t> g_next_seq{0};
/// Session id: thread-local buffer pointers from a previous session must
/// not be reused (their storage was cleared by begin()).
std::atomic<std::uint64_t> g_session{0};

Buffer& tls_buffer() {
  thread_local Buffer* buf = nullptr;
  thread_local std::uint64_t session = 0;
  const std::uint64_t cur = g_session.load(std::memory_order_acquire);
  if (buf == nullptr || session != cur) {
    std::lock_guard<std::mutex> lk(g_registry_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buf = g_buffers.back().get();
    session = cur;
  }
  return *buf;
}

}  // namespace

void record_slow(OpKind op, const Vec3& p, std::uint8_t kind,
                 std::uint32_t cavity, int tid) {
  Buffer& b = tls_buffer();
  OpRecord r;
  r.point = p;
  // Drawn while the caller still holds the operation's vertex locks:
  // conflicting operations are ordered by their lock handoff, so sequence
  // order is a valid linearization (see header).
  r.seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  r.cavity = cavity;
  r.tid = tid;
  r.op = op;
  r.kind = kind;
  r.rule = b.current_rule;
  b.records.push_back(r);
}

std::uint8_t& current_rule_slot() { return tls_buffer().current_rule; }

}  // namespace detail

void begin() {
  std::lock_guard<std::mutex> lk(detail::g_registry_mutex);
  detail::g_buffers.clear();
  detail::g_next_seq.store(0, std::memory_order_relaxed);
  detail::g_session.fetch_add(1, std::memory_order_acq_rel);
  detail::g_recording.store(true, std::memory_order_release);
}

void end() { detail::g_recording.store(false, std::memory_order_release); }

std::vector<OpRecord> snapshot() {
  std::lock_guard<std::mutex> lk(detail::g_registry_mutex);
  std::vector<OpRecord> out;
  std::size_t total = 0;
  for (const auto& b : detail::g_buffers) total += b->records.size();
  out.reserve(total);
  for (const auto& b : detail::g_buffers) {
    out.insert(out.end(), b->records.begin(), b->records.end());
  }
  std::sort(out.begin(), out.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.seq < b.seq; });
  return out;
}

std::size_t record_count() {
  std::lock_guard<std::mutex> lk(detail::g_registry_mutex);
  std::size_t total = 0;
  for (const auto& b : detail::g_buffers) total += b->records.size();
  return total;
}

namespace {

constexpr char kMagic[8] = {'P', '2', 'M', 'O', 'P', 'L', 'O', 'G'};
constexpr std::uint32_t kVersion = 1;
// point (3 doubles) + seq + cavity + tid + op + kind + rule, packed.
constexpr std::size_t kRecordBytes = 3 * 8 + 8 + 4 + 4 + 1 + 1 + 1;

void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_f64(std::string& s, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  put_u64(s, bits);
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

}  // namespace

bool save_oplog(const std::vector<OpRecord>& log, const std::string& path) {
  std::string out;
  out.reserve(sizeof(kMagic) + 4 + 8 + log.size() * kRecordBytes);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kVersion);
  put_u64(out, log.size());
  for (const OpRecord& r : log) {
    put_f64(out, r.point.x);
    put_f64(out, r.point.y);
    put_f64(out, r.point.z);
    put_u64(out, r.seq);
    put_u32(out, r.cavity);
    put_u32(out, static_cast<std::uint32_t>(r.tid));
    out.push_back(static_cast<char>(r.op));
    out.push_back(static_cast<char>(r.kind));
    out.push_back(static_cast<char>(r.rule));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<std::vector<OpRecord>> load_oplog(const std::string& path,
                                                std::string* error) {
  const auto fail = [&](const char* msg) -> std::optional<std::vector<OpRecord>> {
    if (error) *error = msg;
    return std::nullopt;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open oplog file");
  std::string raw;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) raw.append(chunk, n);
  std::fclose(f);

  if (raw.size() < sizeof(kMagic) + 4 + 8 ||
      std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail("not an oplog file (bad magic)");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
  std::size_t off = sizeof(kMagic);
  const std::uint32_t version = get_u32(p + off);
  off += 4;
  if (version != kVersion) return fail("unsupported oplog version");
  const std::uint64_t count = get_u64(p + off);
  off += 8;
  if (raw.size() - off < count * kRecordBytes) return fail("truncated oplog");

  std::vector<OpRecord> log;
  log.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    OpRecord r;
    r.point.x = get_f64(p + off); off += 8;
    r.point.y = get_f64(p + off); off += 8;
    r.point.z = get_f64(p + off); off += 8;
    r.seq = get_u64(p + off); off += 8;
    r.cavity = get_u32(p + off); off += 4;
    r.tid = static_cast<std::int32_t>(get_u32(p + off)); off += 4;
    r.op = static_cast<OpKind>(p[off]); off += 1;
    r.kind = p[off]; off += 1;
    r.rule = p[off]; off += 1;
    log.push_back(r);
  }
  return log;
}

}  // namespace pi2m::check
