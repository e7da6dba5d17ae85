// Reproduces paper Figure 5: strong scaling with Random Work Stealing (RWS)
// vs Hierarchical Work Stealing (HWS).
//   (a) speedup per thread count for both balancers,
//   (b) inter-blade steal counts (HWS must show markedly fewer),
//   (c) per-thread overhead breakdown for HWS.
//
//   ./bench_fig5_strong [--manifest PATH] [grid_size=56] [delta=1.0]
//                       [max_threads=16]
//
// With --manifest the largest HWS run's outcome (steal locality, park
// counters, wall time) is written as a pi2m run manifest for CI smoke.
#include <vector>

#include "bench_common.hpp"
#include "telemetry/collectors.hpp"
#include "telemetry/run_manifest.hpp"

using namespace pi2m;

int main(int argc, char** argv) {
  // Strip --manifest before the positional [grid delta threads] parse.
  std::string manifest_path;
  std::vector<char*> pos;
  pos.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (a.rfind("--manifest=", 0) == 0) {
      manifest_path = a.substr(std::string("--manifest=").size());
    } else {
      pos.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(pos.size());
  argv = pos.data();

  const bench::Args args(argc, argv,
                         "bench_fig5_strong [--manifest PATH] [grid_size=56] "
                         "[delta=1.0] [max_threads=16]");
  const int n = args.grid(1, 56);
  const double delta = args.positive(2, 1.0);
  const int max_threads = args.count(3, 16);

  std::printf("== Figure 5: strong scaling, RWS vs HWS ==\n");
  std::printf("input: abdominal phantom %d^3, delta=%.2f (fixed problem)\n",
              n, delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(n, n, n);

  struct Run {
    int threads;
    LbKind lb;
    RefineOutcome out;
  };
  std::vector<Run> runs;
  double t1 = 0.0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    for (const LbKind lb : {LbKind::RWS, LbKind::HWS}) {
      if (threads == 1 && lb == LbKind::HWS) continue;  // identical at 1
      std::printf("  running %s x%d...\n", lb_name(lb), threads);
      MeshingOptions opt = bench::options(delta, threads);
      opt.load_balancer = lb;
      const RefineOutcome out = bench::run_pi2m(img, opt).outcome;
      if (threads == 1) t1 = out.wall_sec;
      runs.push_back({threads, lb, out});
    }
  }

  std::printf("\n(Fig 5a) speedup = time(1) / time(n)\n");
  io::TextTable a;
  a.add_row({"threads", "RWS speedup", "HWS speedup", "RWS time(s)",
             "HWS time(s)"});
  for (int threads = 2; threads <= max_threads; threads *= 2) {
    std::string cells[4];
    for (const auto& r : runs) {
      if (r.threads != threads) continue;
      const int c = r.lb == LbKind::RWS ? 0 : 1;
      cells[c] = io::fmt_double(t1 / r.out.wall_sec, 2);
      cells[c + 2] = io::fmt_double(r.out.wall_sec, 2);
    }
    a.add_row({std::to_string(threads), cells[0], cells[1], cells[2],
               cells[3]});
  }
  a.print();

  std::printf("\n(Fig 5b) work transfers by locality (virtual topology)\n");
  io::TextTable b;
  b.add_row({"threads", "balancer", "intra-socket", "intra-blade",
             "inter-blade", "inter-blade share"});
  for (const auto& r : runs) {
    if (r.threads == 1) continue;
    const auto& t = r.out.totals;
    const std::uint64_t total = t.total_steals();
    b.add_row({std::to_string(r.threads), lb_name(r.lb),
               io::fmt_int(t.steals_intra_socket),
               io::fmt_int(t.steals_intra_blade),
               io::fmt_int(t.steals_inter_blade),
               total ? io::fmt_pct(static_cast<double>(t.steals_inter_blade) /
                                   static_cast<double>(total))
                     : "-"});
  }
  b.print();

  std::printf("\n(Fig 5c) HWS overhead breakdown per thread (seconds)\n");
  io::TextTable c;
  c.add_row({"threads", "contention/thr", "load-bal/thr", "rollback/thr",
             "total/thr"});
  for (const auto& r : runs) {
    if (r.lb != LbKind::HWS) continue;
    const auto& t = r.out.totals;
    const double inv = 1.0 / r.threads;
    c.add_row({std::to_string(r.threads),
               io::fmt_double(t.contention_sec * inv, 3),
               io::fmt_double(t.loadbalance_sec * inv, 3),
               io::fmt_double(t.rollback_sec * inv, 3),
               io::fmt_double(t.total_overhead_sec() * inv, 3)});
  }
  c.print();

  if (!manifest_path.empty()) {
    // Manifest of the largest HWS run (the scheduler's stress case).
    const Run* best = nullptr;
    for (const auto& r : runs) {
      if (r.lb != LbKind::HWS) continue;
      if (!best || r.threads > best->threads) best = &r;
    }
    if (!best) best = &runs.back();
    telemetry::RunManifest man;
    man.tool = "bench_fig5_strong";
    man.set_config("phantom", "abdominal");
    man.set_config("grid", n);
    man.set_config("threads", best->threads);
    man.set_config("lb", lb_name(best->lb));
    telemetry::collect_outcome(man.metrics, best->out);
    if (!man.write(manifest_path)) {
      std::fprintf(stderr, "failed to write %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", manifest_path.c_str());
  }
  return 0;
}
