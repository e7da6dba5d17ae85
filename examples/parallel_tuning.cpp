// Parallel-runtime tour: drives the Refiner directly to show the knobs the
// paper's evaluation turns — contention manager, load balancer, virtual
// topology, thread count — and prints the wasted-cycle breakdown (§5.5)
// for each configuration.
//
//   ./parallel_tuning [grid_size] [delta] [max_threads]
#include <cstdio>
#include <cstdlib>

#include "core/refiner.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 40;
  const double delta = argc > 2 ? std::atof(argv[2]) : 1.8;
  const int max_threads = argc > 3 ? std::atoi(argv[3]) : 4;

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
      pi2m::Refiner refiner(img, opt);
      const pi2m::RefineOutcome out = refiner.refine();
      if (!out.completed) {
        table.add_row({cfg.name, std::to_string(threads), "livelock!", "-",
                       "-", "-", "-", "-", "-", "-"});
        continue;
      }
      table.add_row({cfg.name, std::to_string(threads),
                     pi2m::io::fmt_int(out.mesh_cells),
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
  std::printf(
      "\nNote: this host exposes one physical core; thread counts above it\n"
      "exercise the concurrency control (rollbacks, CM waits, begging-list\n"
      "traffic) without wall-clock speedup. See EXPERIMENTS.md.\n");
  return 0;
}
