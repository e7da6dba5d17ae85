#include "io/mesh_serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace pi2m::io {
namespace {

constexpr char kMagic[8] = {'P', 'I', '2', 'M', 'M', 'S', 'H', '1'};

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return in.good();
}

template <typename T>
bool read_vec(std::ifstream& in, std::vector<T>& v, std::uint64_t max_count) {
  std::uint64_t n = 0;
  if (!read_pod(in, n) || n > max_count) return false;
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return in.good() || (n == 0 && !in.bad());
}

constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 33;

}  // namespace

bool save_mesh(const TetMesh& mesh, const std::string& path) {
  // load_mesh rejects such a file; refuse to write it.
  if (mesh.point_kinds.size() != mesh.points.size() ||
      mesh.tet_labels.size() != mesh.tets.size()) {
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(kMagic, sizeof kMagic);
  write_vec(out, mesh.points);
  write_vec(out, mesh.point_kinds);
  write_vec(out, mesh.tets);
  write_vec(out, mesh.tet_labels);
  write_vec(out, mesh.boundary_tris);
  return out.good();
}

std::optional<TetMesh> load_mesh(const std::string& path, std::string* error) {
  const auto fail = [&](const char* msg) -> std::optional<TetMesh> {
    if (error) *error = msg;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open file");
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic);
  if (!in.good() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail("bad magic / unsupported version");
  }
  TetMesh m;
  if (!read_vec(in, m.points, kMaxCount)) return fail("truncated points");
  if (!read_vec(in, m.point_kinds, kMaxCount)) return fail("truncated kinds");
  if (!read_vec(in, m.tets, kMaxCount)) return fail("truncated tets");
  if (!read_vec(in, m.tet_labels, kMaxCount)) return fail("truncated labels");
  if (!read_vec(in, m.boundary_tris, kMaxCount)) return fail("truncated tris");
  if (m.point_kinds.size() != m.points.size() ||
      m.tet_labels.size() != m.tets.size()) {
    return fail("inconsistent array sizes");
  }
  const auto n = static_cast<std::uint32_t>(m.points.size());
  for (const auto& t : m.tets) {
    for (const std::uint32_t w : t) {
      if (w >= n) return fail("tet index out of range");
    }
  }
  for (const auto& f : m.boundary_tris) {
    for (const std::uint32_t w : f) {
      if (w >= n) return fail("boundary index out of range");
    }
  }
  return m;
}

}  // namespace pi2m::io
