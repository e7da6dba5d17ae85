#include "check/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace pi2m::check {

namespace {

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_f64(std::string& s, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  put_u64(s, bits);
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

constexpr char kMagic[8] = {'P', '2', 'M', 'S', 'N', 'A', 'P', '1'};

bool pos_less(const Vec3& a, const Vec3& b) {
  return std::tie(a.x, a.y, a.z) < std::tie(b.x, b.y, b.z);
}

}  // namespace

bool MeshSnapshot::operator==(const MeshSnapshot& other) const {
  // Compare through the byte serialization so "equal" and "byte-identical"
  // can never diverge (e.g. -0.0 vs 0.0 compare equal as doubles but differ
  // as bytes; both executions of the same ops produce the same bits).
  return snapshot_bytes(*this) == snapshot_bytes(other);
}

MeshSnapshot snapshot_mesh(const DelaunayMesh& mesh) {
  MeshSnapshot s;

  // Alive vertices, position-sorted. Positions are unique among alive
  // vertices (duplicate inserts fail; re-inserted removals first mark the
  // old vertex dead), so the order — and hence the canonical index map —
  // is total and deterministic.
  std::vector<VertexId> alive;
  alive.reserve(mesh.vertex_count());
  for (VertexId v = 0; v < mesh.vertex_count(); ++v) {
    if (!mesh.vertex(v).dead.load(std::memory_order_acquire)) {
      alive.push_back(v);
    }
  }
  std::sort(alive.begin(), alive.end(), [&](VertexId a, VertexId b) {
    return pos_less(mesh.position(a), mesh.position(b));
  });
  std::vector<std::uint32_t> canon(mesh.vertex_count(), 0xFFFFFFFFu);
  s.vertices.reserve(alive.size());
  s.kinds.reserve(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    canon[alive[i]] = static_cast<std::uint32_t>(i);
    s.vertices.push_back(mesh.position(alive[i]));
    s.kinds.push_back(static_cast<std::uint8_t>(mesh.vertex(alive[i]).kind));
  }

  mesh.for_each_alive_cell([&](CellId c) {
    const Cell& cl = mesh.cell(c);
    std::array<std::uint32_t, 4> t{canon[cl.v[0]], canon[cl.v[1]],
                                   canon[cl.v[2]], canon[cl.v[3]]};
    std::sort(t.begin(), t.end());
    s.cells.push_back(t);
  });
  std::sort(s.cells.begin(), s.cells.end());
  return s;
}

std::string snapshot_bytes(const MeshSnapshot& s) {
  std::string out;
  out.reserve(sizeof(kMagic) + 16 + s.vertices.size() * 25 +
              s.cells.size() * 16);
  out.append(kMagic, sizeof(kMagic));
  put_u64(out, s.vertices.size());
  put_u64(out, s.cells.size());
  for (std::size_t i = 0; i < s.vertices.size(); ++i) {
    put_f64(out, s.vertices[i].x);
    put_f64(out, s.vertices[i].y);
    put_f64(out, s.vertices[i].z);
    out.push_back(static_cast<char>(s.kinds[i]));
  }
  for (const auto& t : s.cells) {
    for (const std::uint32_t v : t) put_u32(out, v);
  }
  return out;
}

std::uint64_t snapshot_hash(const MeshSnapshot& s) {
  const std::string bytes = snapshot_bytes(s);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool save_snapshot(const MeshSnapshot& s, const std::string& path) {
  const std::string bytes = snapshot_bytes(s);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool load_snapshot(const std::string& path, MeshSnapshot& out,
                   std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open snapshot file");
  std::string raw;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) raw.append(chunk, n);
  std::fclose(f);

  if (raw.size() < sizeof(kMagic) + 16 ||
      std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail("not a snapshot file (bad magic)");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
  std::size_t off = sizeof(kMagic);
  const std::uint64_t nv = get_u64(p + off);
  off += 8;
  const std::uint64_t nc = get_u64(p + off);
  off += 8;
  if (raw.size() - off < nv * 25 + nc * 16) return fail("truncated snapshot");

  out = MeshSnapshot{};
  out.vertices.reserve(nv);
  out.kinds.reserve(nv);
  out.cells.reserve(nc);
  for (std::uint64_t i = 0; i < nv; ++i) {
    Vec3 v;
    v.x = get_f64(p + off); off += 8;
    v.y = get_f64(p + off); off += 8;
    v.z = get_f64(p + off); off += 8;
    out.vertices.push_back(v);
    out.kinds.push_back(p[off]); off += 1;
  }
  for (std::uint64_t i = 0; i < nc; ++i) {
    std::array<std::uint32_t, 4> t{};
    for (int k = 0; k < 4; ++k) {
      t[static_cast<std::size_t>(k)] = get_u32(p + off);
      off += 4;
    }
    out.cells.push_back(t);
  }
  return true;
}

}  // namespace pi2m::check
