// Reproduces paper Table 6: single-threaded comparison of PI2M against the
// CGAL-class sequential reference mesher and the TetGen-class PLC mesher
// on the knee and head-neck phantoms. Columns per tool: tetrahedra/second,
// time, #tetrahedra, max radius-edge ratio, smallest boundary planar angle,
// (min,max) dihedral angles, symmetric Hausdorff distance.
//
// Paper shape to reproduce: PI2M single-thread rate exceeds the reference
// sequential mesher; PI2M and the reference produce similar quality; the
// PLC mesher (fed PI2M's recovered isosurface, as the paper feeds TetGen)
// is competitive on raw volume-filling but delivers worse dihedral angles
// and radius-edge ratios.
//
//   ./bench_table6_single [grid_size=96] [delta=0.65]
#include "baselines/reference_mesher.hpp"
#include "bench_common.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"

using namespace pi2m;

namespace {

struct ToolResult {
  std::string name;
  TetMesh mesh;
  double wall_sec = 0;
  bool has_hausdorff = true;
};

void print_case(const char* input_name, const std::vector<ToolResult>& tools,
                const IsosurfaceOracle& oracle) {
  std::printf("\n(Table 6 reproduction) input: %s\n", input_name);
  io::TextTable t;
  {
    std::vector<std::string> h{"metric"};
    for (const auto& r : tools) h.push_back(r.name);
    t.add_row(h);
  }
  std::vector<QualityReport> q;
  q.reserve(tools.size());
  for (const auto& r : tools) q.push_back(evaluate_quality(r.mesh));

  auto row = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (std::size_t i = 0; i < tools.size(); ++i) {
      cells.push_back(getter(tools[i], q[i]));
    }
    t.add_row(std::move(cells));
  };
  row("#tetrahedra / second", [](const ToolResult& r, const QualityReport&) {
    return io::fmt_int(static_cast<std::uint64_t>(
        r.mesh.num_tets() / std::max(r.wall_sec, 1e-9)));
  });
  row("time (secs)", [](const ToolResult& r, const QualityReport&) {
    return io::fmt_double(r.wall_sec, 2);
  });
  row("#tetrahedra", [](const ToolResult& r, const QualityReport&) {
    return io::fmt_int(r.mesh.num_tets());
  });
  row("max radius-edge ratio", [](const ToolResult&, const QualityReport& qq) {
    return io::fmt_double(qq.max_radius_edge, 2);
  });
  row("smallest boundary planar angle",
      [](const ToolResult&, const QualityReport& qq) {
        return io::fmt_double(qq.min_boundary_planar_deg, 1) + " deg";
      });
  row("(min, max) dihedral angles",
      [](const ToolResult&, const QualityReport& qq) {
        return "(" + io::fmt_double(qq.min_dihedral_deg, 1) + ", " +
               io::fmt_double(qq.max_dihedral_deg, 1) + ") deg";
      });
  {
    std::vector<std::string> cells{"Hausdorff distance"};
    for (const auto& r : tools) {
      if (!r.has_hausdorff) {
        cells.push_back("n/a (surface given)");
        continue;
      }
      const HausdorffResult h = hausdorff_distance(r.mesh, oracle, 2);
      cells.push_back(io::fmt_double(h.symmetric(), 2) + " vox");
    }
    t.add_row(std::move(cells));
  }
  t.print();
}

void run_case(const char* name, const LabeledImage3D& img, double delta) {
  std::vector<ToolResult> tools;

  // One set of knobs for the three tools: the same δ and the same ρ̄ and
  // planar-angle bounds, as the paper compares them.
  MeshingOptions opt;
  opt.threads = 1;
  opt.delta = delta;

  // PI2M, single thread (with all its locking/CM/LB machinery active).
  std::printf("  PI2M(1 thread)...\n");
  Refiner refiner(img, opt);
  const RefineOutcome out = refiner.refine();
  ToolResult pi2m_res;
  pi2m_res.name = "PI2M(1T)";
  pi2m_res.mesh = extract_mesh(refiner.mesh(), refiner.oracle(), 1);
  // As in the paper, PI2M's time includes the EDT.
  pi2m_res.wall_sec = out.wall_sec + out.edt_sec;
  tools.push_back(std::move(pi2m_res));

  // Reference sequential mesher (CGAL stand-in).
  std::printf("  reference sequential mesher...\n");
  const auto sres = baselines::mesh_image_reference(img, opt);
  tools.push_back({"SeqRef(CGAL-class)", sres.mesh, sres.wall_sec, true});

  // PLC mesher (TetGen stand-in) fed PI2M's recovered isosurface.
  std::printf("  PLC volume mesher...\n");
  const auto pres = baselines::mesh_volume_from_surface(
      tools[0].mesh, refiner.oracle(), opt);
  ToolResult plc{"PLC(TetGen-class)", pres.mesh, pres.wall_sec, false};
  tools.push_back(std::move(plc));

  print_case(name, tools, refiner.oracle());
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults sized so the meshes land in the regime the paper compares in
  // (hundreds of thousands of elements), where PI2M's chunked flat storage
  // overtakes the reference's ever-growing lazy priority queue.
  const bench::Args args(argc, argv,
                         "bench_table6_single [grid_size=96] [delta=0.65]");
  const int n = args.grid(1, 96);
  const double delta = args.positive(2, 0.65);

  std::printf("== Table 6: single-threaded comparison ==\n");
  std::printf("(CGAL/TetGen are represented by from-scratch stand-ins of the\n"
              " same algorithm classes; see DESIGN.md \"Substitutions\")\n");

  run_case("knee phantom", phantom::knee(n, n, n), delta);
  run_case("head-neck phantom", phantom::head_neck(n, n, n), delta);
  return 0;
}
