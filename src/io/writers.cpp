#include "io/writers.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pi2m::io {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open(const std::string& path) { return File(std::fopen(path.c_str(), "w")); }

/// The writers' arrays must line up: a label or kind per element, so a
/// reader never indexes past the end of either.
bool consistent(const TetMesh& mesh) {
  return mesh.point_kinds.size() == mesh.points.size() &&
         mesh.tet_labels.size() == mesh.tets.size();
}

/// Buffered text output for the ASCII writers. Numbers are formatted with
/// std::to_chars into a reused buffer that is flushed with fwrite; the bytes
/// are those printf gives for %.9g (doubles) and %u / %d / %zu (integers).
class TextSink {
 public:
  explicit TextSink(std::FILE* f) : f_(f), buf_(kSize) {}

  TextSink& operator<<(std::string_view s) {
    if (kSize - len_ < s.size()) flush();
    if (s.size() > kSize) {
      std::fwrite(s.data(), 1, s.size(), f_);
    } else {
      std::memcpy(buf_.data() + len_, s.data(), s.size());
      len_ += s.size();
    }
    return *this;
  }
  TextSink& operator<<(char c) {
    if (len_ == kSize) flush();
    buf_[len_++] = c;
    return *this;
  }
  TextSink& operator<<(double x) {
    return put(x, std::chars_format::general, 9);
  }
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  TextSink& operator<<(T x) {
    return put(x);
  }

  /// Flushes the buffer; true when every byte reached the file.
  bool finish() {
    flush();
    return std::ferror(f_) == 0;
  }

 private:
  static constexpr std::size_t kSize = std::size_t{1} << 20;
  static constexpr std::size_t kMaxNumber = 32;  ///< "-1.23456789e-308"

  template <typename... Args>
  TextSink& put(Args... args) {
    if (kSize - len_ < kMaxNumber) flush();
    char* first = buf_.data() + len_;
    len_ = static_cast<std::size_t>(
        std::to_chars(first, first + kMaxNumber, args...).ptr - buf_.data());
    return *this;
  }
  void flush() {
    std::fwrite(buf_.data(), 1, len_, f_);
    len_ = 0;
  }

  std::FILE* f_;
  std::vector<char> buf_;
  std::size_t len_ = 0;
};

}  // namespace

bool write_vtk(const TetMesh& mesh, const std::string& path) {
  if (!consistent(mesh)) return false;
  File f = open(path);
  if (!f) return false;
  TextSink out(f.get());
  out << "# vtk DataFile Version 3.0\npi2m mesh\nASCII\n"
      << "DATASET UNSTRUCTURED_GRID\nPOINTS " << mesh.points.size()
      << " double\n";
  for (const Vec3& p : mesh.points) {
    out << p.x << ' ' << p.y << ' ' << p.z << '\n';
  }
  out << "CELLS " << mesh.tets.size() << ' ' << mesh.tets.size() * 5 << '\n';
  for (const auto& t : mesh.tets) {
    out << "4 " << t[0] << ' ' << t[1] << ' ' << t[2] << ' ' << t[3] << '\n';
  }
  out << "CELL_TYPES " << mesh.tets.size() << '\n';
  for (std::size_t i = 0; i < mesh.tets.size(); ++i) {
    out << "10\n";  // VTK_TETRA
  }
  out << "CELL_DATA " << mesh.tets.size()
      << "\nSCALARS label int 1\nLOOKUP_TABLE default\n";
  for (const Label l : mesh.tet_labels) out << static_cast<int>(l) << '\n';
  return out.finish();
}

bool write_off_surface(const TetMesh& mesh, const std::string& path) {
  if (!consistent(mesh)) return false;
  File f = open(path);
  if (!f) return false;
  TextSink out(f.get());
  out << "OFF\n" << mesh.points.size() << ' ' << mesh.boundary_tris.size()
      << " 0\n";
  for (const Vec3& p : mesh.points) {
    out << p.x << ' ' << p.y << ' ' << p.z << '\n';
  }
  for (const auto& t : mesh.boundary_tris) {
    out << "3 " << t[0] << ' ' << t[1] << ' ' << t[2] << '\n';
  }
  return out.finish();
}

bool write_medit(const TetMesh& mesh, const std::string& path) {
  if (!consistent(mesh)) return false;
  File f = open(path);
  if (!f) return false;
  TextSink out(f.get());
  out << "MeshVersionFormatted 2\nDimension 3\nVertices\n" << mesh.points.size()
      << '\n';
  for (const Vec3& p : mesh.points) {
    out << p.x << ' ' << p.y << ' ' << p.z << " 0\n";
  }
  out << "Tetrahedra\n" << mesh.tets.size() << '\n';
  for (std::size_t i = 0; i < mesh.tets.size(); ++i) {
    const auto& t = mesh.tets[i];
    out << t[0] + 1 << ' ' << t[1] + 1 << ' ' << t[2] + 1 << ' ' << t[3] + 1
        << ' ' << static_cast<int>(mesh.tet_labels[i]) << '\n';
  }
  out << "Triangles\n" << mesh.boundary_tris.size() << '\n';
  for (const auto& t : mesh.boundary_tris) {
    out << t[0] + 1 << ' ' << t[1] + 1 << ' ' << t[2] + 1 << " 0\n";
  }
  out << "End\n";
  return out.finish();
}

bool write_stl_surface(const TetMesh& mesh, const std::string& path) {
  if (!consistent(mesh)) return false;
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  char header[80] = "pi2m boundary surface";
  std::fwrite(header, 1, sizeof header, f.get());
  const auto count = static_cast<std::uint32_t>(mesh.boundary_tris.size());
  std::fwrite(&count, 4, 1, f.get());
  for (const auto& t : mesh.boundary_tris) {
    const Vec3& a = mesh.points[t[0]];
    const Vec3& b = mesh.points[t[1]];
    const Vec3& c3 = mesh.points[t[2]];
    const Vec3 n = normalized(cross(b - a, c3 - a));
    float rec[12] = {
        float(n.x),  float(n.y),  float(n.z),  float(a.x), float(a.y),
        float(a.z),  float(b.x),  float(b.y),  float(b.z), float(c3.x),
        float(c3.y), float(c3.z)};
    std::fwrite(rec, 4, 12, f.get());
    const std::uint16_t attr = 0;
    std::fwrite(&attr, 2, 1, f.get());
  }
  return std::ferror(f.get()) == 0;
}

}  // namespace pi2m::io
