// bench_paper — the paper's evaluation, one experiment per invocation:
//
//   ./bench_paper <experiment> [--manifest PATH] [grid] [delta] [threads]
//
//   table1    Table 1: the four contention managers at threads/2 and threads
//   fig5      Figure 5: strong scaling, RWS vs HWS, 1, 2, 4, ... threads
//   table4    Table 4: weak scaling on two inputs, 1, 2, 4, ... threads
//   table5    Table 5: 2x thread oversubscription, 1, 2, 4, ... threads/2 cores
//   fig6      Figure 6: overhead vs wall time at `threads`
//   ablation  design-choice ablations (R6 removals, give threshold, topology)
//   table6    Table 6: single-thread PI2M vs the CGAL/TetGen stand-ins
//   fig789    Figures 7-9: the three tools' meshes, written as .vtk/.stl
//             files to the current directory
//
// `threads` is the largest thread count an experiment runs; table6 and
// fig789 run one thread and take no `threads`. kExperiments holds each
// experiment's defaults. Every PI2M run goes through Paper::run, which
// records its outcome under a run label ("hws.t4.refine.steals_total");
// --manifest writes every record of the experiment as one run manifest.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "baselines/reference_mesher.hpp"
#include "bench_common.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"
#include "io/writers.hpp"
#include "telemetry/collectors.hpp"
#include "telemetry/run_manifest.hpp"

using namespace pi2m;

namespace {

constexpr const char* kUsage =
    "bench_paper <table1|fig5|table4|table5|fig6|ablation|table6|fig789> "
    "[--manifest PATH] [grid] [delta] [threads]";

std::string label(const std::string& name, int threads) {
  return name + ".t" + std::to_string(threads) + ".";
}

/// One experiment's arguments and the records of its runs: each run's
/// metrics sit under its label ("local.t8.refine.rollbacks").
struct Paper {
  int grid;
  double delta;
  int threads;
  telemetry::MetricsRegistry records;

  /// Copies `r` into the records under `prefix`, every value as a number.
  void add(const std::string& prefix, const telemetry::MetricsRegistry& r) {
    for (const auto& [name, v] : r.all()) {
      records.set(prefix + name, v.as_double());
    }
  }

  /// Meshes `img` and records the outcome, the mesh size and the knobs the
  /// experiments vary (the contention manager and balancer are in `prefix`).
  MeshingResult run(const std::string& prefix, const LabeledImage3D& img,
                    const MeshingOptions& opt) {
    MeshingResult res = mesh_image(img, opt);
    telemetry::MetricsRegistry r;
    telemetry::collect_outcome(r, res.outcome);
    telemetry::collect_mesh(r, res.mesh);
    r.set("options.threads", opt.threads);
    r.set("options.delta", opt.delta);
    r.set("options.removal_factor", opt.removal_factor);
    r.set("options.give_threshold", opt.give_threshold);
    r.set("options.cores_per_socket", opt.topology.cores_per_socket);
    r.set("options.sockets_per_blade", opt.topology.sockets_per_blade);
    add(prefix, r);
    return res;
  }
};

/// Prints a table with one column per run: `cols[j]` holds run j's cells,
/// one per entry of `titles`, the first of them the header row's.
void print_columns(const std::vector<std::string>& titles,
                   const std::vector<std::vector<std::string>>& cols) {
  io::TextTable t;
  for (std::size_t i = 0; i < titles.size(); ++i) {
    std::vector<std::string> row{titles[i]};
    for (const auto& col : cols) row.push_back(col[i]);
    t.add_row(std::move(row));
  }
  t.print();
}

// ---- Table 1: contention managers ------------------------------------------
// Rows: time, rollbacks, contention/load-balance/rollback overhead seconds,
// total overhead, speedup vs 1 thread, livelock observed. Paper shape:
// Aggressive livelocks; Random terminates (if at all) with far larger
// rollback counts and overheads; Global and Local are livelock-free with
// Local showing the lowest total overhead.

void cm_table(Paper& p, const LabeledImage3D& img, int threads,
              double t1_sec) {
  std::printf("\n(Table 1 reproduction) %d threads\n", threads);
  const std::pair<CmKind, const char*> cms[] = {
      {CmKind::Aggressive, "Aggressive-CM"},
      {CmKind::Random, "Random-CM"},
      {CmKind::Global, "Global-CM"},
      {CmKind::Local, "Local-CM"}};
  std::vector<std::vector<std::string>> cols;
  for (const auto& [k, header] : cms) {
    std::printf("  running %s...\n", cm_name(k));
    MeshingOptions opt = bench::options(p.delta, threads);
    opt.contention_manager = k;
    // Aggressive/Random may livelock; keep their watchdog short.
    opt.watchdog_sec =
        (k == CmKind::Aggressive || k == CmKind::Random) ? 10.0 : 30.0;
    const MeshingResult r = p.run(label(cm_name(k), threads), img, opt);
    const RefineOutcome& o = r.outcome;
    const StatsTotals& t = o.totals;
    std::vector<std::string> col{header};
    if (o.livelocked) {
      col.resize(9, "n/a");  // the header and 8 numeric rows
    } else {
      col.insert(col.end(), {io::fmt_double(o.wall_sec, 2),
                             io::fmt_int(r.mesh.num_tets()),
                             io::fmt_int(t.rollbacks),
                             io::fmt_double(t.contention_sec, 2),
                             io::fmt_double(t.loadbalance_sec, 2),
                             io::fmt_double(t.rollback_sec, 2),
                             io::fmt_double(t.total_overhead_sec(), 2),
                             io::fmt_double(t1_sec / o.wall_sec, 2)});
    }
    col.emplace_back(o.livelocked ? "yes" : "no");
    cols.push_back(std::move(col));
  }
  print_columns({"", "time (secs)", "#elements", "rollbacks",
                 "contention overhead (secs)", "load balance overhead (secs)",
                 "rollback overhead (secs)", "total overhead (secs)",
                 "speedup vs 1 thread", "livelock"},
                cols);
}

int table1(Paper& p) {
  std::printf("== Table 1: Contention Manager comparison ==\n");
  std::printf("input: abdominal phantom %d^3, delta=%.2f\n", p.grid, p.delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(p.grid, p.grid, p.grid);

  std::printf("baseline single-thread run...\n");
  const MeshingResult r1 =
      p.run("baseline.t1.", img, bench::options(p.delta, 1));
  std::printf("1-thread: %.2fs, %zu elements\n", r1.outcome.wall_sec,
              r1.mesh.num_tets());

  cm_table(p, img, p.threads / 2, r1.outcome.wall_sec);
  cm_table(p, img, p.threads, r1.outcome.wall_sec);
  return 0;
}

// ---- Figure 5: strong scaling, RWS vs HWS ----------------------------------
//   (a) speedup per thread count for both balancers,
//   (b) inter-blade steal counts (HWS must show markedly fewer),
//   (c) per-thread overhead breakdown for HWS.

int fig5(Paper& p) {
  std::printf("== Figure 5: strong scaling, RWS vs HWS ==\n");
  std::printf("input: abdominal phantom %d^3, delta=%.2f (fixed problem)\n",
              p.grid, p.delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(p.grid, p.grid, p.grid);
  auto run = [&](LbKind lb, int threads) {
    std::printf("  running %s x%d...\n", lb_name(lb), threads);
    MeshingOptions opt = bench::options(p.delta, threads);
    opt.load_balancer = lb;
    return p.run(label(lb_name(lb), threads), img, opt).outcome;
  };
  // The two balancers are identical at 1 thread.
  const double t1 = run(LbKind::RWS, 1).wall_sec;

  io::TextTable a, b, c;
  a.add_row({"threads", "RWS speedup", "HWS speedup", "RWS time(s)",
             "HWS time(s)"});
  b.add_row({"threads", "balancer", "intra-socket", "intra-blade",
             "inter-blade", "inter-blade share"});
  c.add_row({"threads", "contention/thr", "load-bal/thr", "rollback/thr",
             "total/thr"});
  for (int threads = 2; threads <= p.threads; threads *= 2) {
    const RefineOutcome rws = run(LbKind::RWS, threads);
    const RefineOutcome hws = run(LbKind::HWS, threads);
    const std::string n = std::to_string(threads);
    a.add_row({n, io::fmt_double(t1 / rws.wall_sec, 2),
               io::fmt_double(t1 / hws.wall_sec, 2),
               io::fmt_double(rws.wall_sec, 2),
               io::fmt_double(hws.wall_sec, 2)});
    for (const RefineOutcome* o : {&rws, &hws}) {
      const StatsTotals& t = o->totals;
      const std::uint64_t total = t.total_steals();
      b.add_row({n, o == &rws ? "rws" : "hws",
                 io::fmt_int(t.steals_intra_socket),
                 io::fmt_int(t.steals_intra_blade),
                 io::fmt_int(t.steals_inter_blade),
                 total ? io::fmt_pct(static_cast<double>(t.steals_inter_blade) /
                                     static_cast<double>(total))
                       : "-"});
    }
    const StatsTotals& t = hws.totals;
    const double inv = 1.0 / threads;
    c.add_row({n, io::fmt_double(t.contention_sec * inv, 3),
               io::fmt_double(t.loadbalance_sec * inv, 3),
               io::fmt_double(t.rollback_sec * inv, 3),
               io::fmt_double(t.total_overhead_sec() * inv, 3)});
  }
  std::printf("\n(Fig 5a) speedup = time(1) / time(n)\n");
  a.print();
  std::printf("\n(Fig 5b) work transfers by locality (virtual topology)\n");
  b.print();
  std::printf("\n(Fig 5c) HWS overhead breakdown per thread (seconds)\n");
  c.print();
  return 0;
}

// ---- Tables 4 and 5: weak scaling ------------------------------------------

/// One weak-scaling run at `threads` threads.
struct WeakRun {
  int threads;
  std::size_t tets;
  RefineOutcome out;
};

/// Weak scaling (paper §6.3): decreasing delta by x increases the mesh size
/// by ~x^3, so delta_1 / cores^(1/3) keeps the number of elements per core
/// approximately constant. Runs 1, 2, 4, ... up to `max_cores` cores with
/// `per_core` threads each, labelled "<name>.t<threads>.".
std::vector<WeakRun> weak_scaling(Paper& p, const std::string& name,
                                  const LabeledImage3D& img, int max_cores,
                                  int per_core) {
  std::vector<WeakRun> runs;
  for (int cores = 1; cores <= max_cores; cores *= 2) {
    const int threads = cores * per_core;
    const double delta = p.delta / std::cbrt(static_cast<double>(cores));
    std::printf("  cores=%d threads=%d delta=%.3f...\n", cores, threads,
                delta);
    const MeshingResult res =
        p.run(label(name, threads), img, bench::options(delta, threads));
    runs.push_back({threads, res.mesh.num_tets(), res.outcome});
  }
  return runs;
}

// Rows per thread count: #elements, time, elements/second, speedup
// (= El(n)*T(1) / (T(n)*El(1))), efficiency, overhead secs per thread. The
// abdominal and knee phantoms stand in for the IRCAD/SPL atlases.
void weak_scaling_case(Paper& p, const char* title, const char* name,
                       const LabeledImage3D& img) {
  std::printf("\n(Table 4 reproduction) input: %s\n", title);
  const std::vector<WeakRun> runs = weak_scaling(p, name, img, p.threads, 1);
  const double t1 = runs.front().out.wall_sec;
  const auto el1 = static_cast<double>(runs.front().tets);
  std::vector<std::vector<std::string>> cols;
  for (const WeakRun& r : runs) {
    const auto el = static_cast<double>(r.tets);
    const double speedup = el * t1 / (r.out.wall_sec * el1);
    cols.push_back(
        {std::to_string(r.threads), io::fmt_sci(el, 2),
         io::fmt_double(r.out.wall_sec, 2), io::fmt_sci(el / r.out.wall_sec, 2),
         io::fmt_double(speedup, 2), io::fmt_double(speedup / r.threads, 2),
         io::fmt_double(r.out.totals.total_overhead_sec() / r.threads, 2)});
  }
  print_columns({"#Threads", "#Elements", "Time (secs)", "Elements per second",
                 "Speedup", "Efficiency", "Overhead secs per thread"},
                cols);
}

int table4(Paper& p) {
  std::printf("== Table 4: weak scaling on two inputs ==\n");
  bench::print_host_note();
  weak_scaling_case(p, "abdominal phantom (Table 4a)", "abdominal",
                    phantom::abdominal(p.grid, p.grid, p.grid));
  weak_scaling_case(p, "knee phantom (Table 4b)", "knee",
                    phantom::knee(p.grid, p.grid, p.grid));
  return 0;
}

// Table 5 reruns Table 4a with twice as many threads as "cores". The paper
// reports HW counters (TLB/LLC misses, resource stalls) from Blacklight;
// portable equivalents are unavailable here, so this reports the
// software-visible counters that carry the paper's argument: relative
// speedup of 2x-threads vs 1x-threads at each size, overhead seconds per
// thread, and rollbacks (see DESIGN.md "Substitutions").
int table5(Paper& p) {
  std::printf("== Table 5: 2x thread oversubscription (hyper-threading) ==\n");
  std::printf("input: abdominal phantom %d^3\n", p.grid);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(p.grid, p.grid, p.grid);
  const int max_cores = p.threads / 2;
  const std::vector<WeakRun> x1 = weak_scaling(p, "1x", img, max_cores, 1);
  const std::vector<WeakRun> x2 = weak_scaling(p, "2x", img, max_cores, 2);
  std::vector<std::vector<std::string>> cols;
  for (std::size_t i = 0; i < x1.size(); ++i) {
    const RefineOutcome& o1 = x1[i].out;
    const RefineOutcome& o2 = x2[i].out;
    cols.push_back(
        {std::to_string(x1[i].threads),
         io::fmt_sci(static_cast<double>(x1[i].tets), 2),
         io::fmt_double(o1.wall_sec, 2), io::fmt_double(o2.wall_sec, 2),
         io::fmt_double(o1.wall_sec / o2.wall_sec, 2),
         io::fmt_double(o2.totals.total_overhead_sec() / x2[i].threads, 2),
         io::fmt_int(o1.totals.rollbacks), io::fmt_int(o2.totals.rollbacks)});
  }
  print_columns({"#Cores", "#Elements", "Time 1x (s)", "Time 2x (s)",
                 "Speedup 2x vs 1x", "Overhead secs/thread 2x", "Rollbacks 1x",
                 "Rollbacks 2x"},
                cols);
  return 0;
}

// ---- Figure 6: overhead vs wall time ---------------------------------------
// Cumulative overhead seconds (contention + load balance + rollback, summed
// over all threads) as a function of wall time. The paper's phase structure
// should appear: a steep Phase-1 ramp at the start of refinement (the mesh
// is almost empty, so there is little parallelism and intense
// begging/contention), then near-flat growth once enough elements exist to
// keep every thread busy.

int fig6(Paper& p) {
  std::printf("== Figure 6: overhead vs wall time (%d threads) ==\n",
              p.threads);
  std::printf("input: abdominal phantom %d^3, delta=%.2f\n", p.grid, p.delta);
  bench::print_host_note();

  const LabeledImage3D img = phantom::abdominal(p.grid, p.grid, p.grid);
  const MeshingResult res = p.run(label("timeline", p.threads), img,
                                  bench::options(p.delta, p.threads));
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
  // up to the last sample within the first 10% of the run (the first
  // sample when none is that early) vs overall. Each share is taken over
  // its own sample's window.
  const TimelineSample& last = out.timeline.back();
  const TimelineSample* early = &out.timeline.front();
  for (const auto& s : out.timeline) {
    if (s.wall_sec <= last.wall_sec * 0.1) early = &s;
  }
  auto useful = [&](const TimelineSample& s) {
    const double total = s.wall_sec * p.threads;
    const double wasted = s.contention_sec + s.loadbalance_sec + s.rollback_sec;
    return total > 0 ? (total - wasted) / total : 0.0;
  };
  std::printf("\nuseful-work share, first %.3fs of run : %s\n",
              early->wall_sec, io::fmt_pct(useful(*early)).c_str());
  std::printf("useful-work share, whole run          : %s\n",
              io::fmt_pct(useful(last)).c_str());
  std::printf("total elements: %zu in %.2fs\n", res.mesh.num_tets(),
              out.wall_sec);
  return 0;
}

// ---- Ablations of the design choices DESIGN.md calls out -------------------
// Not a paper table; supports the paper's §4-§6 claims:
//   1. R6 removals on/off — removals are the paper's headline algorithmic
//      addition; disabling them shows their effect on mesh size/quality.
//   2. give_threshold sweep — the paper fixes 5 ("yielded the best
//      results"); the sweep shows the sensitivity.
//   3. Virtual topology granularity under HWS — how socket size changes
//      steal locality.

int ablation(Paper& p) {
  std::printf("== Ablation studies ==\n");
  const LabeledImage3D img = phantom::abdominal(p.grid, p.grid, p.grid);

  std::printf("\n(1) R6 removals on/off (removal radius factor)\n");
  {
    io::TextTable t;
    t.add_row({"removal factor", "elements", "removals", "time(s)",
               "points"});
    for (const double rf : {0.0, 1.0, 2.0, 3.0}) {
      MeshingOptions opt = bench::options(p.delta, 1);
      opt.removal_factor = rf;
      const MeshingResult res =
          p.run("removal_factor_" + io::fmt_double(rf, 1) + ".", img, opt);
      const RefineOutcome& out = res.outcome;
      t.add_row({io::fmt_double(rf, 1), io::fmt_int(res.mesh.num_tets()),
                 io::fmt_int(out.totals.removals),
                 io::fmt_double(out.wall_sec, 2),
                 io::fmt_int(res.mesh.num_points())});
    }
    t.print();
    std::printf("(factor 0 disables R6 entirely; 2.0 is the paper's rule)\n");
  }

  std::printf("\n(2) work-give threshold sweep (%d threads)\n", p.threads);
  {
    io::TextTable t;
    t.add_row({"threshold", "time(s)", "loadbal(s)", "steals", "rollbacks"});
    for (const int thr : {1, 5, 20, 100}) {
      MeshingOptions opt = bench::options(p.delta, p.threads);
      opt.give_threshold = thr;
      const RefineOutcome out =
          p.run("give_threshold_" + std::to_string(thr) + ".", img, opt)
              .outcome;
      t.add_row({std::to_string(thr), io::fmt_double(out.wall_sec, 2),
                 io::fmt_double(out.totals.loadbalance_sec, 2),
                 io::fmt_int(out.totals.total_steals()),
                 io::fmt_int(out.totals.rollbacks)});
    }
    t.print();
    std::printf("(the paper uses 5)\n");
  }

  std::printf("\n(3) virtual topology granularity under HWS (%d threads)\n",
              p.threads);
  {
    io::TextTable t;
    t.add_row({"cores/socket x sockets/blade", "intra-socket", "intra-blade",
               "inter-blade", "time(s)"});
    const TopologySpec topos[] = {{1, 1}, {2, 2}, {4, 2}, {8, 2}};
    for (const TopologySpec& ts : topos) {
      const std::string name = std::to_string(ts.cores_per_socket) + "x" +
                               std::to_string(ts.sockets_per_blade);
      MeshingOptions opt = bench::options(p.delta, p.threads);
      opt.topology = ts;
      const RefineOutcome out =
          p.run("topology_" + name + ".", img, opt).outcome;
      t.add_row({name, io::fmt_int(out.totals.steals_intra_socket),
                 io::fmt_int(out.totals.steals_intra_blade),
                 io::fmt_int(out.totals.steals_inter_blade),
                 io::fmt_double(out.wall_sec, 2)});
    }
    t.print();
  }
  return 0;
}

// ---- Table 6 and Figures 7-9: the single-thread comparison -----------------

/// One tool's mesh in the single-thread comparison.
struct Tool {
  const char* column;  ///< Table-6 column header
  const char* tag;     ///< run label part and .vtk file suffix
  TetMesh mesh;
  double wall_sec;
  /// What its Hausdorff distance is measured against; null for the PLC
  /// mesher, which is given the surface.
  std::shared_ptr<const IsosurfaceOracle> oracle;
};

/// PI2M, the CGAL-class reference and the TetGen-class PLC mesher (fed
/// PI2M's recovered isosurface, as the paper feeds TetGen) on one input,
/// in that order, with one set of knobs: the same δ and the same ρ̄ and
/// planar-angle bounds, as the paper compares them. Each tool is recorded
/// under "<name>.<tag>.".
std::vector<Tool> three_tools(Paper& p, const std::string& name,
                              const LabeledImage3D& img) {
  const MeshingOptions opt = bench::options(p.delta, 1);
  std::printf("  PI2M(1 thread)...\n");
  MeshingResult pi2m = p.run(name + ".pi2m.", img, opt);
  std::printf("  reference sequential mesher...\n");
  auto seq = baselines::mesh_image_reference(img, opt);
  std::printf("  PLC volume mesher...\n");
  auto plc = baselines::mesh_volume_from_surface(pi2m.mesh, *pi2m.oracle, opt);

  std::vector<Tool> tools;
  // As in the paper, PI2M's time includes the EDT.
  tools.push_back({"PI2M(1T)", "pi2m", std::move(pi2m.mesh),
                   pi2m.outcome.wall_sec + pi2m.outcome.edt_sec, pi2m.oracle});
  tools.push_back({"SeqRef(CGAL-class)", "seqref", std::move(seq.mesh),
                   seq.wall_sec, pi2m.oracle});
  tools.push_back(
      {"PLC(TetGen-class)", "plc", std::move(plc.mesh), plc.wall_sec, nullptr});
  for (const Tool& t : tools) {
    telemetry::MetricsRegistry r;
    telemetry::collect_mesh(r, t.mesh);
    r.set("tool.wall_sec", t.wall_sec);
    p.add(name + "." + t.tag + ".", r);
  }
  return tools;
}

// Columns per tool: tetrahedra/second, time, #tetrahedra, max radius-edge
// ratio, smallest boundary planar angle, (min,max) dihedral angles,
// symmetric Hausdorff distance. Paper shape: PI2M's single-thread rate
// exceeds the reference sequential mesher; PI2M and the reference produce
// similar quality; the PLC mesher is competitive on raw volume-filling but
// delivers worse dihedral angles and radius-edge ratios.
void table6_case(Paper& p, const char* title, const std::string& name,
                 const LabeledImage3D& img) {
  std::printf("\n(Table 6 reproduction) input: %s\n", title);
  std::vector<std::vector<std::string>> cols;
  for (const Tool& t : three_tools(p, name, img)) {
    telemetry::MetricsRegistry r;
    const QualityReport q = evaluate_quality(t.mesh);
    telemetry::collect_quality(r, q);
    std::string hausdorff = "n/a (surface given)";
    if (t.oracle) {
      const HausdorffResult h = hausdorff_distance(t.mesh, *t.oracle, 2);
      telemetry::collect_hausdorff(r, h);
      hausdorff = io::fmt_double(h.symmetric(), 2) + " vox";
    }
    p.add(name + "." + t.tag + ".", r);
    cols.push_back({t.column,
                    io::fmt_int(static_cast<std::uint64_t>(
                        t.mesh.num_tets() / std::max(t.wall_sec, 1e-9))),
                    io::fmt_double(t.wall_sec, 2),
                    io::fmt_int(t.mesh.num_tets()),
                    io::fmt_double(q.max_radius_edge, 2),
                    io::fmt_double(q.min_boundary_planar_deg, 1) + " deg",
                    "(" + io::fmt_double(q.min_dihedral_deg, 1) + ", " +
                        io::fmt_double(q.max_dihedral_deg, 1) + ") deg",
                    hausdorff});
  }
  print_columns({"metric", "#tetrahedra / second", "time (secs)",
                 "#tetrahedra", "max radius-edge ratio",
                 "smallest boundary planar angle",
                 "(min, max) dihedral angles", "Hausdorff distance"},
                cols);
}

int table6(Paper& p) {
  std::printf("== Table 6: single-threaded comparison ==\n");
  std::printf("(CGAL/TetGen are represented by from-scratch stand-ins of the\n"
              " same algorithm classes; see DESIGN.md \"Substitutions\")\n");
  table6_case(p, "knee phantom", "knee", phantom::knee(p.grid, p.grid, p.grid));
  table6_case(p, "head-neck phantom", "head_neck",
              phantom::head_neck(p.grid, p.grid, p.grid));
  return 0;
}

// A text bench cannot render, so Figures 7-9 become the render-ready
// artifacts (VTK with per-tissue labels + STL surfaces) and the per-tissue
// composition each figure visualizes — including the paper's Figure-9
// observation that the PLC/TetGen path loses the tissue identities (it only
// receives the outer PLC and seeds; here: it labels by lookup, so
// composition matches, but it recovers no internal interfaces of its own).

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

void fig789_case(Paper& p, const std::string& name,
                 const LabeledImage3D& img) {
  std::printf("(Figures 7-9 artifacts) input: %s\n", name.c_str());
  const std::vector<Tool> tools = three_tools(p, name, img);
  const char* figures[] = {"PI2M (Fig 7)", "SeqRef (Fig 8)", "PLC (Fig 9)"};
  for (std::size_t i = 0; i < tools.size(); ++i) {
    composition(figures[i], tools[i].mesh);
    io::write_vtk(tools[i].mesh, name + "_" + tools[i].tag + ".vtk");
  }
  io::write_stl_surface(tools[0].mesh, name + "_pi2m.stl");
  std::printf("  wrote %s_{pi2m,seqref,plc}.vtk and %s_pi2m.stl\n\n",
              name.c_str(), name.c_str());
}

int fig789(Paper& p) {
  std::printf("== Figures 7-9: output meshes of the three tools ==\n");
  std::printf("(render the .vtk files colored by the 'label' cell scalar)\n\n");
  fig789_case(p, "knee", phantom::knee(p.grid, p.grid, p.grid));
  fig789_case(p, "head_neck", phantom::head_neck(p.grid, p.grid, p.grid));
  return 0;
}

struct Experiment {
  const char* name;
  int (*run)(Paper&);
  int grid;
  double delta;
  int threads;      ///< default largest thread count
  int min_threads;  ///< 0: runs one thread and takes no `threads` argument
};

constexpr Experiment kExperiments[] = {
    {"table1", table1, 56, 1.0, 8, 2},
    {"fig5", fig5, 56, 1.0, 16, 1},
    {"table4", table4, 48, 1.6, 8, 1},
    {"table5", table5, 48, 1.6, 16, 2},
    {"fig6", fig6, 48, 0.9, 16, 1},
    {"ablation", ablation, 44, 1.2, 8, 1},
    // Sized so the meshes land in the regime the paper compares in
    // (hundreds of thousands of elements), where PI2M's chunked flat
    // storage overtakes the reference's ever-growing lazy priority queue.
    {"table6", table6, 96, 0.65, 1, 0},
    {"fig789", fig789, 64, 1.0, 1, 0},
};

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    if (i > 1 && i + 1 < argc && std::string(argv[i]) == "--manifest") {
      manifest_path = argv[++i];
    } else {
      pos.push_back(argv[i]);
    }
  }
  const bench::Args args(static_cast<int>(pos.size()), pos.data(), kUsage);
  const std::string name = args.text(1, "");
  const Experiment* e = nullptr;
  for (const Experiment& x : kExperiments) {
    if (name == x.name) e = &x;
  }
  if (!e) args.refuse("unknown experiment '" + name + "'");
  args.at_most(e->min_threads > 0 ? 5 : 4);

  Paper p{args.grid(2, e->grid), args.positive(3, e->delta),
          e->min_threads > 0
              ? args.count(4, e->threads, kMaxJobThreads, e->min_threads)
              : 1,
          {}};
  const int rc = e->run(p);
  if (rc != 0 || manifest_path.empty()) return rc;

  telemetry::RunManifest man;
  man.tool = "bench_paper";
  man.set_config("experiment", e->name);
  man.set_config("grid", p.grid);
  man.set_config("delta", p.delta);
  man.set_config("threads", p.threads);
  man.metrics = std::move(p.records);
  if (!man.write(manifest_path)) {
    std::fprintf(stderr, "failed to write %s\n", manifest_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", manifest_path.c_str());
  return 0;
}
