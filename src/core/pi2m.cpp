#include "core/pi2m.hpp"

#include <unordered_map>

#include "geometry/tetra.hpp"
#include "runtime/stats.hpp"
#include "support/parallel_for.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {

TetMesh extract_mesh(const DelaunayMesh& mesh, const IsosurfaceOracle& oracle,
                     int threads, const lattice::LatticeFill* lattice) {
  PI2M_TRACE_SPAN("phase.extract", "phase");
  const std::uint32_t slots = mesh.cell_slot_count();

  // Pass 1 (parallel): label of each kept cell, 0 = dropped. Hybrid runs
  // additionally drop cells covered by the lattice region L (the templates
  // replace them); `covered` remembers the material label of such cells so
  // face emission across ∂L sees the right effective label. The seeded
  // interface guarantees no kernel cell straddles ∂L, so the exact
  // centroid-in-L test classifies cells whole.
  std::vector<Label> keep(slots, 0);
  std::vector<Label> covered(lattice != nullptr ? slots : 0, 0);
  parallel_blocks(slots, threads, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      const CellId cid = static_cast<CellId>(c);
      if (!mesh.cell_alive(cid)) continue;
      const auto p = mesh.positions(cid);
      if (lattice != nullptr) {
        // Covered test first: a cell inside L is replaced by templates no
        // matter where its circumcenter lands (a sliver's can leave O).
        const Vec3 centroid = 0.25 * (p[0] + p[1] + p[2] + p[3]);
        Label lat_lab = 0;
        if (lattice->contains(centroid, &lat_lab)) {
          covered[c] = lat_lab;
          continue;
        }
      }
      const Circumsphere cs = circumsphere(p[0], p[1], p[2], p[3]);
      if (!cs.valid) continue;
      keep[c] = oracle.label_at(cs.center);
    }
  });

  // Pass 2 (sequential): compact points and emit elements + interface
  // triangles. Faces are emitted from the side with the smaller label so
  // each interface triangle appears once; lattice-covered neighbours never
  // emit themselves, so the kept side emits whenever labels differ.
  // Output vertices are numbered in first-touch order through a dense table
  // indexed by kernel vertex id.
  TetMesh out;
  constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;
  std::vector<std::uint32_t> remap(mesh.vertex_count(), kUnmapped);
  auto map_vertex = [&](VertexId v) {
    std::uint32_t& idx = remap[v];
    if (idx == kUnmapped) {
      idx = static_cast<std::uint32_t>(out.points.size());
      out.points.push_back(mesh.vertex(v).pos);
      out.point_kinds.push_back(mesh.vertex(v).kind);
    }
    return idx;
  };

  for (CellId c = 0; c < slots; ++c) {
    if (keep[c] == 0) continue;
    const Cell& cl = mesh.cell(c);
    out.tets.push_back({map_vertex(cl.v[0]), map_vertex(cl.v[1]),
                        map_vertex(cl.v[2]), map_vertex(cl.v[3])});
    out.tet_labels.push_back(keep[c]);
    for (int i = 0; i < 4; ++i) {
      const CellId nb = cl.n[i].load(std::memory_order_acquire);
      const bool nb_covered =
          nb != kNoCell && lattice != nullptr && covered[nb] != 0;
      const Label other =
          nb == kNoCell ? Label{0} : (nb_covered ? covered[nb] : keep[nb]);
      const bool emit = other < keep[c] || (nb_covered && other != keep[c]);
      if (!emit) continue;
      out.boundary_tris.push_back({map_vertex(cl.v[kFaceOf[i][0]]),
                                   map_vertex(cl.v[kFaceOf[i][1]]),
                                   map_vertex(cl.v[kFaceOf[i][2]])});
    }
  }

  if (lattice != nullptr) {
    // Pass 2b: a covered cell whose neighbour was dropped outright (e.g. a
    // sliver whose circumcenter walked outside O) leaves a ∂L face with no
    // kernel emitter; emit its boundary triangle from the covered side so
    // the stitched mesh stays conforming.
    for (CellId c = 0; c < slots; ++c) {
      if (covered[c] == 0) continue;
      const Cell& cl = mesh.cell(c);
      for (int i = 0; i < 4; ++i) {
        const CellId nb = cl.n[i].load(std::memory_order_acquire);
        if (nb != kNoCell && (keep[nb] != 0 || covered[nb] != 0)) continue;
        out.boundary_tris.push_back({map_vertex(cl.v[kFaceOf[i][0]]),
                                     map_vertex(cl.v[kFaceOf[i][1]]),
                                     map_vertex(cl.v[kFaceOf[i][2]])});
      }
    }

    // Pass 3 (stitch): append the BCC template tets. Interface vertices
    // reuse the seeded kernel vertex ids (bit-identical positions by
    // construction); deep lattice points get fresh ids keyed by their
    // packed lattice coordinate.
    PI2M_TRACE_SPAN("phase.stitch", "phase");
    out.tets.reserve(out.tets.size() + lattice->stats().tets);
    out.tet_labels.reserve(out.tet_labels.size() + lattice->stats().tets);
    std::unordered_map<std::uint64_t, std::uint32_t> lattice_remap;
    auto map_lattice_vertex = [&](std::uint64_t key, const Vec3& pos) {
      const VertexId seeded = lattice->seeded_vertex(key);
      if (seeded != kNoVertex) return map_vertex(seeded);
      auto it = lattice_remap.find(key);
      if (it != lattice_remap.end()) return it->second;
      const auto idx = static_cast<std::uint32_t>(out.points.size());
      out.points.push_back(pos);
      out.point_kinds.push_back(VertexKind::Lattice);
      lattice_remap.emplace(key, idx);
      return idx;
    };
    lattice->for_each_tet([&](const std::array<std::uint64_t, 4>& keys,
                              const std::array<Vec3, 4>& pos, Label lab) {
      out.tets.push_back({map_lattice_vertex(keys[0], pos[0]),
                          map_lattice_vertex(keys[1], pos[1]),
                          map_lattice_vertex(keys[2], pos[2]),
                          map_lattice_vertex(keys[3], pos[3])});
      out.tet_labels.push_back(lab);
    });
  }
  return out;
}

MeshingResult mesh_image(const LabeledImage3D& img, const MeshingOptions& opt) {
  return mesh_image(img, opt, nullptr);
}

MeshingResult mesh_image(const LabeledImage3D& img, const MeshingOptions& opt,
                         std::shared_ptr<const IsosurfaceOracle> warm_oracle) {
  Refiner refiner(img, opt, std::move(warm_oracle));
  MeshingResult res;
  res.outcome = refiner.refine();
  const double t0 = now_sec();
  res.mesh = extract_mesh(refiner.mesh(), refiner.oracle(), opt.threads,
                          refiner.lattice());
  res.extract_sec = now_sec() - t0;
  res.oracle = refiner.shared_oracle();
  return res;
}

}  // namespace pi2m
