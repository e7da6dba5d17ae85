// Reproduces paper Table 1: comparison among Contention Managers
// (Aggressive-CM, Random-CM, Global-CM, Local-CM) at two thread counts.
// Rows: time, rollbacks, contention/load-balance/rollback overhead seconds,
// total overhead, speedup vs 1 thread, livelock observed.
//
//   ./bench_table1_cm [grid_size=56] [delta=1.0] [threads_a=4] [threads_b=8]
//
// Paper shape to reproduce: Aggressive livelocks; Random terminates (if at
// all) with far larger rollback counts and overheads; Global and Local are
// livelock-free with Local showing the lowest total overhead.
#include <optional>

#include "bench_common.hpp"

using namespace pi2m;

namespace {

MeshingResult run_cm(const LabeledImage3D& img, double delta, int threads,
                     CmKind cm, double watchdog) {
  MeshingOptions opt = bench::options(delta, threads);
  opt.contention_manager = cm;
  opt.watchdog_sec = watchdog;
  return bench::run_pi2m(img, opt);
}

void table_for(const LabeledImage3D& img, double delta, int threads,
               double t1_sec) {
  std::printf("\n(Table 1 reproduction) %d threads\n", threads);
  io::TextTable t;
  t.add_row({"", "Aggressive-CM", "Random-CM", "Global-CM", "Local-CM"});

  const CmKind kinds[] = {CmKind::Aggressive, CmKind::Random, CmKind::Global,
                          CmKind::Local};
  std::vector<MeshingResult> runs;
  runs.reserve(4);
  for (const CmKind k : kinds) {
    std::printf("  running %s...\n", cm_name(k));
    // Aggressive/Random may livelock; keep their watchdog short.
    const double wd = (k == CmKind::Aggressive || k == CmKind::Random) ? 10.0
                                                                       : 30.0;
    runs.push_back(run_cm(img, delta, threads, k, wd));
  }

  auto row = [&](const char* label, auto getter) {
    std::vector<std::string> cells{label};
    for (const MeshingResult& r : runs) {
      cells.push_back(r.outcome.livelocked ? "n/a" : getter(r));
    }
    t.add_row(std::move(cells));
  };
  row("time (secs)", [](const MeshingResult& r) {
    return io::fmt_double(r.outcome.wall_sec, 2);
  });
  row("#elements", [](const MeshingResult& r) {
    return io::fmt_int(r.mesh.num_tets());
  });
  row("rollbacks", [](const MeshingResult& r) {
    return io::fmt_int(r.outcome.totals.rollbacks);
  });
  row("contention overhead (secs)", [](const MeshingResult& r) {
    return io::fmt_double(r.outcome.totals.contention_sec, 2);
  });
  row("load balance overhead (secs)", [](const MeshingResult& r) {
    return io::fmt_double(r.outcome.totals.loadbalance_sec, 2);
  });
  row("rollback overhead (secs)", [](const MeshingResult& r) {
    return io::fmt_double(r.outcome.totals.rollback_sec, 2);
  });
  row("total overhead (secs)", [](const MeshingResult& r) {
    return io::fmt_double(r.outcome.totals.total_overhead_sec(), 2);
  });
  row("speedup vs 1 thread", [t1_sec](const MeshingResult& r) {
    return io::fmt_double(t1_sec / r.outcome.wall_sec, 2);
  });
  {
    std::vector<std::string> cells{"livelock"};
    for (const MeshingResult& r : runs) {
      cells.push_back(r.outcome.livelocked ? "yes" : "no");
    }
    t.add_row(std::move(cells));
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv,
                         "bench_table1_cm [grid_size=56] [delta=1.0] "
                         "[threads_a=4] [threads_b=8]");
  const int n = args.grid(1, 56);
  const double delta = args.positive(2, 1.0);
  const int threads_a = args.count(3, 4);
  const int threads_b = args.count(4, 8);

  std::printf("== Table 1: Contention Manager comparison ==\n");
  std::printf("input: abdominal phantom %d^3, delta=%.2f\n", n, delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(n, n, n);

  std::printf("baseline single-thread run...\n");
  const MeshingResult r1 = bench::run_pi2m(img, bench::options(delta, 1));
  std::printf("1-thread: %.2fs, %zu elements\n", r1.outcome.wall_sec,
              r1.mesh.num_tets());

  table_for(img, delta, threads_a, r1.outcome.wall_sec);
  table_for(img, delta, threads_b, r1.outcome.wall_sec);
  return 0;
}
