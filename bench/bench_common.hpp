// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every bench accepts [grid_size] [delta] as its first arguments so runs
// can be scaled up on bigger machines; the defaults are sized for a small
// single-core container (each bench finishes in seconds to a few minutes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/refiner.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"

namespace pi2m::bench {

inline LabeledImage3D make_phantom(const std::string& name, int n) {
  auto img = phantom::by_name(name, n);
  if (img) return std::move(*img);
  std::fprintf(stderr, "unknown phantom '%s'\n", name.c_str());
  std::exit(2);
}

struct RunConfig {
  double delta = 1.5;
  int threads = 1;
  CmKind cm = CmKind::Local;
  LbKind lb = LbKind::HWS;
  TopologySpec topo{2, 2};  // small virtual sockets: all BL levels active
  double watchdog_sec = 15.0;
  bool timeline = false;
  double timeline_period = 0.05;
  SizeFunction size_fn;
};

inline RefineOutcome run_pi2m(const LabeledImage3D& img, const RunConfig& cfg) {
  MeshingOptions opt;
  opt.threads = cfg.threads;
  opt.contention_manager = cfg.cm;
  opt.load_balancer = cfg.lb;
  opt.topology = cfg.topo;
  opt.delta = cfg.delta;
  opt.size_function = cfg.size_fn;
  opt.watchdog_sec = cfg.watchdog_sec;
  opt.record_timeline = cfg.timeline;
  opt.timeline_period_sec = cfg.timeline_period;
  Refiner refiner(img, opt);
  return refiner.refine();
}

/// Weak scaling control (paper §6.3): a decrease of delta by x increases
/// the mesh size by ~x^3, so delta_n = delta_1 / n^(1/3) keeps the number
/// of elements per thread approximately constant.
inline double weak_scaling_delta(double delta_1, int threads) {
  return delta_1 / std::cbrt(static_cast<double>(threads));
}

inline void print_host_note() {
  std::printf(
      "# NOTE: this reproduction host exposes %u hardware thread(s); thread\n"
      "# counts beyond that exercise PI2M's concurrency control (rollbacks,\n"
      "# contention managers, begging lists) without physical parallel\n"
      "# speedup. The paper ran on Blacklight (cc-NUMA, up to 256 cores).\n"
      "# Algorithmic counters (rollbacks, steal locality, overhead seconds)\n"
      "# remain directly comparable; wall-clock speedups do not. See\n"
      "# EXPERIMENTS.md.\n",
      std::thread::hardware_concurrency());
}

}  // namespace pi2m::bench
