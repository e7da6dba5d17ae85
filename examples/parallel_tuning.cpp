// Parallel-runtime tour: runs mesh_image to show the knobs the
// paper's evaluation turns — contention manager, load balancer, virtual
// topology, thread count — and prints the wasted-cycle breakdown (§5.5)
// for each configuration.
//
//   ./parallel_tuning [grid_size=40] [delta=1.8] [max_threads=4]
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/pi2m.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"
#include "pipeline/job_options.hpp"

namespace {

/// argv[i] parsed whole and range-checked as the job flags are, or `dflt`
/// when absent. A refused value prints why and the usage line, and exits 2.
double arg(int argc, char** argv, int i, double dflt, double lo, double hi,
           bool integer, bool lo_open = false) {
  if (i >= argc) return dflt;
  double v = 0;
  const std::string why =
      pi2m::parse_number(argv[i], lo, hi, integer, v, lo_open);
  if (why.empty()) return v;
  std::fprintf(stderr,
               "%s\nusage: parallel_tuning [grid_size=40] [delta=1.8] "
               "[max_threads=4]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const int n = static_cast<int>(arg(argc, argv, 1, 40, 2, 4096, true));
  const double delta = arg(argc, argv, 2, 1.8, 0,
                           std::numeric_limits<double>::infinity(), false,
                           /*lo_open=*/true);
  const int max_threads = static_cast<int>(
      arg(argc, argv, 3, 4, 1, pi2m::kMaxJobThreads, true));

  const pi2m::LabeledImage3D img = pi2m::phantom::abdominal(n, n, n);

  pi2m::io::TextTable table;
  table.add_row({"config", "threads", "elements", "time(s)", "rollbacks",
                 "contention(s)", "loadbal(s)", "rollback(s)", "steals",
                 "inter-blade"});

  struct Config {
    const char* name;
    pi2m::CmKind cm;
    pi2m::LbKind lb;
  };
  const Config configs[] = {
      {"Local+HWS", pi2m::CmKind::Local, pi2m::LbKind::HWS},
      {"Local+RWS", pi2m::CmKind::Local, pi2m::LbKind::RWS},
      {"Global+HWS", pi2m::CmKind::Global, pi2m::LbKind::HWS},
      {"Random+HWS", pi2m::CmKind::Random, pi2m::LbKind::HWS},
  };

  for (const Config& cfg : configs) {
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      pi2m::MeshingOptions opt;
      opt.threads = threads;
      opt.contention_manager = cfg.cm;
      opt.load_balancer = cfg.lb;
      opt.topology = {2, 2};  // small virtual sockets exercise all BL levels
      opt.delta = delta;
      const pi2m::MeshingResult res = pi2m::mesh_image(img, opt);
      const pi2m::RefineOutcome& out = res.outcome;
      if (!out.completed) {
        table.add_row({cfg.name, std::to_string(threads), "livelock!", "-",
                       "-", "-", "-", "-", "-", "-"});
        continue;
      }
      table.add_row({cfg.name, std::to_string(threads),
                     pi2m::io::fmt_int(res.mesh.num_tets()),
                     pi2m::io::fmt_double(out.wall_sec, 3),
                     pi2m::io::fmt_int(out.totals.rollbacks),
                     pi2m::io::fmt_double(out.totals.contention_sec, 3),
                     pi2m::io::fmt_double(out.totals.loadbalance_sec, 3),
                     pi2m::io::fmt_double(out.totals.rollback_sec, 3),
                     pi2m::io::fmt_int(out.totals.total_steals()),
                     pi2m::io::fmt_int(out.totals.steals_inter_blade)});
    }
  }
  table.print();
  return 0;
}
