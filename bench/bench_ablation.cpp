// Ablations of the design choices DESIGN.md calls out (not a paper table;
// supports the paper's §4-§6 claims):
//   1. R6 removals on/off — removals are the paper's headline algorithmic
//      addition; disabling them shows their effect on mesh size/quality.
//   2. give_threshold sweep — the paper fixes 5 ("yielded the best
//      results"); the sweep shows the sensitivity.
//   3. Virtual topology granularity under HWS — how socket size changes
//      steal locality.
//
//   ./bench_ablation [grid_size=44] [delta=1.2] [threads=8] [manifest.json]
#include "bench_common.hpp"
#include "metrics/quality.hpp"
#include "telemetry/run_manifest.hpp"

using namespace pi2m;

namespace {

RefineOutcome run(const LabeledImage3D& img, double delta, int threads,
                  double removal_factor, int give_threshold,
                  TopologySpec topo) {
  MeshingOptions opt;
  opt.threads = threads;
  opt.delta = delta;
  opt.removal_factor = removal_factor;
  opt.give_threshold = give_threshold;
  opt.topology = topo;
  Refiner refiner(img, opt);
  return refiner.refine();
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 44;
  const double delta = argc > 2 ? std::atof(argv[2]) : 1.2;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 8;
  const std::string manifest_path = argc > 4 ? argv[4] : "";
  telemetry::MetricsRegistry reg;

  std::printf("== Ablation studies ==\n");
  const LabeledImage3D img = phantom::abdominal(n, n, n);

  std::printf("\n(1) R6 removals on/off (removal radius factor)\n");
  {
    io::TextTable t;
    t.add_row({"removal factor", "elements", "removals", "time(s)",
               "vertices"});
    for (const double rf : {0.0, 1.0, 2.0, 3.0}) {
      const RefineOutcome out = run(img, delta, 1, rf, 5, {2, 2});
      t.add_row({io::fmt_double(rf, 1), io::fmt_int(out.mesh_cells),
                 io::fmt_int(out.totals.removals),
                 io::fmt_double(out.wall_sec, 2), io::fmt_int(out.vertices)});
      const std::string p =
          "ablation.removal_factor_" + io::fmt_double(rf, 1) + ".";
      reg.set(p + "mesh_cells", out.mesh_cells);
      reg.set(p + "removals", out.totals.removals);
      reg.set(p + "wall_sec", out.wall_sec);
      reg.set(p + "vertices", out.vertices);
    }
    t.print();
    std::printf("(factor 0 disables R6 entirely; 2.0 is the paper's rule)\n");
  }

  std::printf("\n(2) work-give threshold sweep (%d threads)\n", threads);
  {
    io::TextTable t;
    t.add_row({"threshold", "time(s)", "loadbal(s)", "steals", "rollbacks"});
    for (const int thr : {1, 5, 20, 100}) {
      const RefineOutcome out = run(img, delta, threads, 2.0, thr, {2, 2});
      t.add_row({std::to_string(thr), io::fmt_double(out.wall_sec, 2),
                 io::fmt_double(out.totals.loadbalance_sec, 2),
                 io::fmt_int(out.totals.total_steals()),
                 io::fmt_int(out.totals.rollbacks)});
      const std::string p =
          "ablation.give_threshold_" + std::to_string(thr) + ".";
      reg.set(p + "wall_sec", out.wall_sec);
      reg.set(p + "loadbalance_sec", out.totals.loadbalance_sec);
      reg.set(p + "steals", out.totals.total_steals());
      reg.set(p + "rollbacks", out.totals.rollbacks);
    }
    t.print();
    std::printf("(the paper uses 5)\n");
  }

  std::printf("\n(3) virtual topology granularity under HWS (%d threads)\n",
              threads);
  {
    io::TextTable t;
    t.add_row({"cores/socket x sockets/blade", "intra-socket", "intra-blade",
               "inter-blade", "time(s)"});
    const TopologySpec topos[] = {{1, 1}, {2, 2}, {4, 2}, {8, 2}};
    for (const TopologySpec& ts : topos) {
      const RefineOutcome out = run(img, delta, threads, 2.0, 5, ts);
      t.add_row({std::to_string(ts.cores_per_socket) + "x" +
                     std::to_string(ts.sockets_per_blade),
                 io::fmt_int(out.totals.steals_intra_socket),
                 io::fmt_int(out.totals.steals_intra_blade),
                 io::fmt_int(out.totals.steals_inter_blade),
                 io::fmt_double(out.wall_sec, 2)});
      const std::string p = "ablation.topology_" +
                            std::to_string(ts.cores_per_socket) + "x" +
                            std::to_string(ts.sockets_per_blade) + ".";
      reg.set(p + "steals_intra_socket", out.totals.steals_intra_socket);
      reg.set(p + "steals_intra_blade", out.totals.steals_intra_blade);
      reg.set(p + "steals_inter_blade", out.totals.steals_inter_blade);
      reg.set(p + "wall_sec", out.wall_sec);
    }
    t.print();
  }

  if (!manifest_path.empty()) {
    telemetry::RunManifest man;
    man.tool = "bench_ablation";
    man.set_config("grid_size", n);
    man.set_config("delta", delta);
    man.set_config("threads", threads);
    man.metrics = reg;
    if (!man.write(manifest_path)) {
      std::fprintf(stderr, "failed to write %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", manifest_path.c_str());
  }
  return 0;
}
