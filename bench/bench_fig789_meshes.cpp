// Reproduces paper Figures 7-9: the rendered output meshes of PI2M, the
// CGAL-class reference, and the TetGen-class PLC mesher on the knee and
// head-neck inputs. A text bench cannot render, so this binary produces
// the render-ready artifacts (VTK with per-tissue labels + STL surfaces)
// and prints the per-tissue composition table each figure visualizes —
// including the paper's Figure-9 observation that the PLC/TetGen path
// loses the tissue identities (it only receives the outer PLC and seeds;
// here: it labels by lookup, so composition matches, but it recovers no
// internal interfaces of its own).
//
//   ./bench_fig789_meshes [grid_size=64] [delta=1.0] [outdir=.]
#include <map>
#include <string>

#include "baselines/plc_mesher.hpp"
#include "baselines/seq_mesher.hpp"
#include "bench_common.hpp"
#include "io/writers.hpp"

using namespace pi2m;

namespace {

void composition(const char* tool, const TetMesh& mesh) {
  std::map<int, std::size_t> per_label;
  for (const Label l : mesh.tet_labels) ++per_label[l];
  std::printf("  %-22s %8zu tets, %6zu interface tris, tissues:", tool,
              mesh.num_tets(), mesh.boundary_tris.size());
  for (const auto& [l, cnt] : per_label) {
    std::printf(" %d:%zu", l, cnt);
  }
  std::printf("\n");
}

void run_case(const char* name, const LabeledImage3D& img, double delta,
              const std::string& outdir) {
  std::printf("(Figures 7-9 artifacts) input: %s\n", name);

  MeshingOptions opt;
  opt.threads = 1;
  opt.delta = delta;
  Refiner refiner(img, opt);
  if (!refiner.refine().completed) {
    std::fprintf(stderr, "  PI2M failed\n");
    return;
  }
  const TetMesh pi2m_mesh = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
  composition("PI2M (Fig 7)", pi2m_mesh);

  baselines::SeqMesherOptions sopt;
  sopt.delta = delta;
  const auto sres = baselines::mesh_image_reference(img, sopt);
  composition("SeqRef (Fig 8)", sres.mesh);

  baselines::PlcMesherOptions popt;
  popt.protect_radius = 0.9 * delta;
  const auto pres =
      baselines::mesh_volume_from_surface(pi2m_mesh, refiner.oracle(), popt);
  composition("PLC (Fig 9)", pres.mesh);

  const std::string base = outdir + "/" + name;
  io::write_vtk(pi2m_mesh, base + "_pi2m.vtk");
  io::write_stl_surface(pi2m_mesh, base + "_pi2m.stl");
  io::write_vtk(sres.mesh, base + "_seqref.vtk");
  io::write_vtk(pres.mesh, base + "_plc.vtk");
  std::printf("  wrote %s_{pi2m,seqref,plc}.vtk and %s_pi2m.stl\n\n",
              base.c_str(), base.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 64;
  const double delta = argc > 2 ? std::atof(argv[2]) : 1.0;
  const std::string outdir = argc > 3 ? argv[3] : ".";

  std::printf("== Figures 7-9: output meshes of the three tools ==\n");
  std::printf("(render the .vtk files colored by the 'label' cell scalar)\n\n");
  run_case("knee", phantom::knee(n, n, n), delta, outdir);
  run_case("head_neck", phantom::head_neck(n, n, n), delta, outdir);
  return 0;
}
