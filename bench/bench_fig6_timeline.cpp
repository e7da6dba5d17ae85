// Reproduces paper Figure 6: cumulative overhead seconds (contention +
// load balance + rollback, summed over all threads) as a function of wall
// time. The paper's phase structure should appear: a steep Phase-1 ramp at
// the start of refinement (the mesh is almost empty, so there is little
// parallelism and intense begging/contention), then near-flat growth once
// enough elements exist to keep every thread busy.
//
//   ./bench_fig6_timeline [grid_size=48] [delta=0.9] [threads=16]
#include "bench_common.hpp"

using namespace pi2m;

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv, "bench_fig6_timeline [grid_size=48] [delta=0.9] [threads=16]");
  const int n = args.grid(1, 48);
  const double delta = args.positive(2, 0.9);
  const int threads = args.count(3, 16);

  std::printf("== Figure 6: overhead vs wall time (%d threads) ==\n", threads);
  std::printf("input: abdominal phantom %d^3, delta=%.2f\n", n, delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(n, n, n);
  const MeshingResult res =
      bench::run_pi2m(img, bench::options(delta, threads));
  const RefineOutcome& out = res.outcome;
  if (!out.completed) {
    std::fprintf(stderr, "run did not complete\n");
    return 1;
  }

  io::TextTable t;
  t.add_row({"wall (s)", "overhead total (s)", "contention (s)",
             "load balance (s)", "rollback (s)", "ops so far"});
  for (const TimelineSample& s : out.timeline) {
    t.add_row({io::fmt_double(s.wall_sec, 3),
               io::fmt_double(s.contention_sec + s.loadbalance_sec +
                                  s.rollback_sec, 3),
               io::fmt_double(s.contention_sec, 3),
               io::fmt_double(s.loadbalance_sec, 3),
               io::fmt_double(s.rollback_sec, 3), io::fmt_int(s.operations)});
  }
  t.print();

  // Phase-1 summary as in the paper's narrative: the share of useful work
  // during the first 10% of the run vs overall.
  const TimelineSample& last = out.timeline.back();
  const double cut = last.wall_sec * 0.1;
  const TimelineSample* early = &out.timeline.front();
  for (const auto& s : out.timeline) {
    if (s.wall_sec <= cut) early = &s;
  }
  auto useful = [&](const TimelineSample& s, double wall) {
    const double total = wall * threads;
    const double wasted = s.contention_sec + s.loadbalance_sec + s.rollback_sec;
    return total > 0 ? (total - wasted) / total : 0.0;
  };
  std::printf("\nuseful-work share, first %.0f%% of run : %s\n", 10.0,
              io::fmt_pct(useful(*early, cut)).c_str());
  std::printf("useful-work share, whole run          : %s\n",
              io::fmt_pct(useful(last, last.wall_sec)).c_str());
  std::printf("total elements: %zu in %.2fs\n", res.mesh.num_tets(),
              out.wall_sec);
  return 0;
}
