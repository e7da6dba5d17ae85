// Reproduces paper Table 5: the hyper-threaded execution of the Table 4a
// case study — same problem sizes, twice as many threads as "cores".
//
// The paper reports HW counters (TLB/LLC misses, resource stalls) from
// Blacklight; portable equivalents are unavailable here, so this bench
// reports the software-visible counters that carry the paper's argument:
// relative speedup of 2x-threads vs 1x-threads at each size, overhead
// seconds per thread, and rollbacks (see DESIGN.md "Substitutions").
//
//   ./bench_table5_ht [grid_size=48] [delta1=1.6] [max_cores=8]
#include "bench_common.hpp"

using namespace pi2m;

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv, "bench_table5_ht [grid_size=48] [delta1=1.6] [max_cores=8]");
  const int n = args.grid(1, 48);
  const double delta_1 = args.positive(2, 1.6);
  // Runs up to 2 x max_cores threads.
  const int max_cores = args.count(3, 8, kMaxJobThreads / 2);

  std::printf("== Table 5: 2x thread oversubscription (hyper-threading) ==\n");
  std::printf("input: abdominal phantom %d^3\n", n);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(n, n, n);

  io::TextTable t;
  std::vector<std::string> h{"#Cores"}, e{"#Elements"}, w1{"Time 1x (s)"},
      w2{"Time 2x (s)"}, sp{"Speedup 2x vs 1x"}, ov{"Overhead secs/thread 2x"},
      rb1{"Rollbacks 1x"}, rb2{"Rollbacks 2x"};

  for (int cores = 1; cores <= max_cores; cores *= 2) {
    const double delta = bench::weak_scaling_delta(delta_1, cores);
    std::printf("  cores=%d (threads %d vs %d), delta=%.3f...\n", cores,
                cores, 2 * cores, delta);
    const MeshingResult r1 = bench::run_pi2m(img, bench::options(delta, cores));
    const RefineOutcome o2 =
        bench::run_pi2m(img, bench::options(delta, 2 * cores)).outcome;
    const RefineOutcome& o1 = r1.outcome;

    h.push_back(std::to_string(cores));
    e.push_back(io::fmt_sci(static_cast<double>(r1.mesh.num_tets()), 2));
    w1.push_back(io::fmt_double(o1.wall_sec, 2));
    w2.push_back(io::fmt_double(o2.wall_sec, 2));
    sp.push_back(io::fmt_double(o1.wall_sec / o2.wall_sec, 2));
    ov.push_back(
        io::fmt_double(o2.totals.total_overhead_sec() / (2 * cores), 2));
    rb1.push_back(io::fmt_int(o1.totals.rollbacks));
    rb2.push_back(io::fmt_int(o2.totals.rollbacks));
  }
  t.add_row(h);
  t.add_row(e);
  t.add_row(w1);
  t.add_row(w2);
  t.add_row(sp);
  t.add_row(ov);
  t.add_row(rb1);
  t.add_row(rb2);
  t.print();
  return 0;
}
