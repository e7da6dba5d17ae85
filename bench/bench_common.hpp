// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every bench accepts [grid_size] [delta] as its first arguments so runs
// can be scaled up on bigger machines; the defaults are sized so each
// bench finishes in seconds to a few minutes. Thread counts above the
// host's hardware thread count timeshare its cores (print_host_note).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "core/pi2m.hpp"
#include "imaging/phantom.hpp"
#include "io/tables.hpp"
#include "pipeline/job_options.hpp"

namespace pi2m::bench {

inline LabeledImage3D make_phantom(const std::string& name, int n) {
  auto img = phantom::by_name(name, n);
  if (img) return std::move(*img);
  std::fprintf(stderr, "unknown phantom '%s'\n", name.c_str());
  std::exit(2);
}

/// The positional arguments ([grid_size] [delta] ...), each parsed whole
/// and range-checked as the job flags are (parse_number). A refused value
/// prints why and the usage line, and exits 2.
class Args {
 public:
  Args(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// argv[i] as an integer in [1, hi], or `dflt` when absent.
  [[nodiscard]] int count(int i, int dflt, int hi = kMaxJobThreads) const {
    return static_cast<int>(number(i, dflt, 1, hi, true, false));
  }
  /// argv[i] as a phantom's edge in voxels, in the job's --size range.
  [[nodiscard]] int grid(int i, int dflt) const {
    return static_cast<int>(number(i, dflt, 2, 4096, true, false));
  }
  /// argv[i] as a positive number, or `dflt` when absent.
  [[nodiscard]] double positive(int i, double dflt) const {
    return number(i, dflt, 0, std::numeric_limits<double>::infinity(), false,
                  true);
  }
  /// argv[i] as text, or `dflt` when absent.
  [[nodiscard]] std::string text(int i, const char* dflt) const {
    return has(i) ? argv_[i] : dflt;
  }

 private:
  [[nodiscard]] bool has(int i) const { return i < argc_; }
  double number(int i, double dflt, double lo, double hi, bool integer,
                bool lo_open) const {
    if (!has(i)) return dflt;
    double v = 0;
    const std::string why =
        parse_number(argv_[i], lo, hi, integer, v, lo_open);
    if (why.empty()) return v;
    std::fprintf(stderr, "%s\nusage: %s\n", why.c_str(), usage_);
    std::exit(2);
  }

  int argc_;
  char** argv_;
  const char* usage_;
};

/// MeshingOptions{} with the benches' two departures: small virtual sockets
/// (2 cores x 2 sockets, so every begging-list level is active at low
/// thread counts) and a 15 s livelock watchdog.
inline MeshingOptions options(double delta, int threads) {
  MeshingOptions opt;
  opt.delta = delta;
  opt.threads = threads;
  opt.topology = {2, 2};
  opt.watchdog_sec = 15.0;
  return opt;
}

inline MeshingResult run_pi2m(const LabeledImage3D& img,
                              const MeshingOptions& opt) {
  return mesh_image(img, opt);
}

/// Weak scaling control (paper §6.3): a decrease of delta by x increases
/// the mesh size by ~x^3, so delta_n = delta_1 / n^(1/3) keeps the number
/// of elements per thread approximately constant.
inline double weak_scaling_delta(double delta_1, int threads) {
  return delta_1 / std::cbrt(static_cast<double>(threads));
}

inline void print_host_note() {
  std::printf(
      "# NOTE: this host has %u hardware thread(s); thread counts above\n"
      "# that timeshare them, so they exercise PI2M's concurrency control\n"
      "# (rollbacks, contention managers, begging lists) but add no\n"
      "# parallel speedup. The paper ran on Blacklight (cc-NUMA, up to 256\n"
      "# cores). Algorithmic counters (rollbacks, steal locality, overhead\n"
      "# seconds) compare directly at any count; wall-clock speedups only\n"
      "# up to this host's thread count. See EXPERIMENTS.md.\n",
      std::thread::hardware_concurrency());
}

}  // namespace pi2m::bench
