// Reproduces paper Table 4: weak scaling on two inputs (abdominal and knee
// phantoms standing in for the IRCAD/SPL atlases). The problem size is
// controlled through delta (paper §6.3: decreasing delta by x increases the
// mesh size by ~x^3), keeping elements-per-thread approximately constant.
// Rows per thread count: #elements, time, elements/second, speedup
// (= El(n)*T(1) / (T(n)*El(1))), efficiency, overhead secs per thread.
//
//   ./bench_table4_weak [grid_size=48] [delta1=1.6] [max_threads=8]
#include "bench_common.hpp"

using namespace pi2m;

namespace {

void weak_scaling_case(const char* name, const LabeledImage3D& img,
                       double delta_1, int max_threads) {
  std::printf("\n(Table 4 reproduction) input: %s\n", name);
  io::TextTable t;
  std::vector<std::string> h{"#Threads"}, e{"#Elements"}, w{"Time (secs)"},
      r{"Elements per second"}, s{"Speedup"}, f{"Efficiency"},
      o{"Overhead secs per thread"};

  double t1 = 0.0;
  std::size_t el1 = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    const double delta = bench::weak_scaling_delta(delta_1, threads);
    std::printf("  threads=%d delta=%.3f...\n", threads, delta);
    const MeshingResult res =
        bench::run_pi2m(img, bench::options(delta, threads));
    const RefineOutcome& out = res.outcome;
    const std::size_t elements = res.mesh.num_tets();
    if (threads == 1) {
      t1 = out.wall_sec;
      el1 = elements;
    }
    const double speedup = (static_cast<double>(elements) * t1) /
                           (out.wall_sec * static_cast<double>(el1));
    h.push_back(std::to_string(threads));
    e.push_back(io::fmt_sci(static_cast<double>(elements), 2));
    w.push_back(io::fmt_double(out.wall_sec, 2));
    r.push_back(io::fmt_sci(res.elements_per_sec(), 2));
    s.push_back(io::fmt_double(speedup, 2));
    f.push_back(io::fmt_double(speedup / threads, 2));
    o.push_back(io::fmt_double(out.totals.total_overhead_sec() / threads, 2));
  }
  t.add_row(h);
  t.add_row(e);
  t.add_row(w);
  t.add_row(r);
  t.add_row(s);
  t.add_row(f);
  t.add_row(o);
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(
      argc, argv, "bench_table4_weak [grid_size=48] [delta1=1.6] [max_threads=8]");
  const int n = args.grid(1, 48);
  const double delta_1 = args.positive(2, 1.6);
  const int max_threads = args.count(3, 8);

  std::printf("== Table 4: weak scaling on two inputs ==\n");
  bench::print_host_note();

  const LabeledImage3D abdominal = phantom::abdominal(n, n, n);
  weak_scaling_case("abdominal phantom (Table 4a)", abdominal, delta_1,
                    max_threads);
  const LabeledImage3D knee = phantom::knee(n, n, n);
  weak_scaling_case("knee phantom (Table 4b)", knee, delta_1, max_threads);
  return 0;
}
