// bench_lattice — hybrid BCC interior fill vs pure Delaunay refinement on
// the volume-dominated ellipsoid phantom (the acceptance benchmark of the
// hybrid interior fill; its 1-core result is quoted in DESIGN.md).
//
// Measures element throughput (us per element of refinement wall time,
// which for the hybrid mode includes the lattice fill + interface seeding)
// and the symmetric Hausdorff distance of each mesh to the recovered
// isosurface. Both modes sample the surface at the same delta, so fidelity
// must come out equal; the hybrid additionally fills the deep interior
// with uniform disphenoids at append cost, where the pure-Delaunay mode
// leaves large sparse cells — the throughput comparison is elements
// produced per second of wall time at equal Hausdorff.
//
// Modes are interleaved within each round (order alternating per round) so
// thermal/neighbor drift cancels; the medians over rounds are the reported
// numbers.
//
// Usage: bench_lattice [grid_size] [delta] [threads] [rounds] [spacing]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pi2m.hpp"
#include "imaging/phantom.hpp"
#include "metrics/hausdorff.hpp"

namespace {

using namespace pi2m;

struct Sample {
  double wall_sec = 0.0;
  double us_per_element = 0.0;
  double elements_per_sec = 0.0;
  double hausdorff = 0.0;
  std::size_t tets = 0;
  std::size_t lattice_tets = 0;
  double fill_sec = 0.0;
  double seed_sec = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Sample run_mode(const LabeledImage3D& img, const IsosurfaceOracle& oracle,
                InteriorFill mode, double delta, double spacing, int threads) {
  MeshingOptions opt;
  opt.delta = delta;
  opt.threads = threads;
  opt.interior = mode;
  opt.lattice_spacing = spacing;
  const MeshingResult res = mesh_image(img, opt);
  if (!res.ok()) {
    std::fprintf(stderr, "run did not complete\n");
    std::exit(1);
  }
  Sample s;
  s.wall_sec = res.outcome.wall_sec;
  s.tets = res.mesh.num_tets();
  s.us_per_element = 1e6 * s.wall_sec / static_cast<double>(s.tets);
  s.elements_per_sec = static_cast<double>(s.tets) / s.wall_sec;
  s.lattice_tets = res.outcome.lattice_tets;
  s.fill_sec = res.outcome.lattice_fill_sec;
  s.seed_sec = res.outcome.lattice_seed_sec;
  s.hausdorff = hausdorff_distance(res.mesh, oracle, threads).symmetric();
  return s;
}

void print_mode(const char* name, const std::vector<Sample>& runs) {
  std::vector<double> us, eps, haus, wall;
  for (const Sample& s : runs) {
    us.push_back(s.us_per_element);
    eps.push_back(s.elements_per_sec);
    haus.push_back(s.hausdorff);
    wall.push_back(s.wall_sec);
  }
  std::printf("    \"%s\": {\n", name);
  std::printf("      \"median_us_per_element\": %.3f,\n", median(us));
  std::printf("      \"median_elements_per_sec\": %.0f,\n", median(eps));
  std::printf("      \"median_wall_sec\": %.3f,\n", median(wall));
  std::printf("      \"median_hausdorff\": %.4f,\n", median(haus));
  std::printf("      \"tets\": %zu,\n", runs.back().tets);
  if (runs.back().lattice_tets > 0) {
    std::printf("      \"lattice_tets\": %zu,\n", runs.back().lattice_tets);
    std::printf("      \"fill_sec\": %.3f,\n", runs.back().fill_sec);
    std::printf("      \"seed_sec\": %.3f,\n", runs.back().seed_sec);
  }
  std::printf("      \"us_per_element_runs\": [");
  for (std::size_t i = 0; i < us.size(); ++i) {
    std::printf("%s%.3f", i ? ", " : "", us[i]);
  }
  std::printf("],\n");
  std::printf("      \"hausdorff_runs\": [");
  for (std::size_t i = 0; i < haus.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", haus[i]);
  }
  std::printf("]\n    }");
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 96;
  const double delta = argc > 2 ? std::atof(argv[2]) : 1.0;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 2;
  const int rounds = argc > 4 ? std::atoi(argv[4]) : 5;
  // Lattice spacing delta (finer than the automatic 2*delta): the interior
  // elements come out at the same scale as the surface sampling, which is
  // what an FE simulation consuming the mesh wants.
  const double spacing = argc > 5 ? std::atof(argv[5]) : delta;

  const LabeledImage3D img = phantom::ellipsoid(n);
  const IsosurfaceOracle oracle(img, threads);

  std::vector<Sample> lat, del;
  for (int r = 0; r < rounds; ++r) {
    // Alternate mode order each round so slow drift cancels in the medians.
    if (r % 2 == 0) {
      lat.push_back(run_mode(img, oracle, InteriorFill::Lattice, delta,
                             spacing, threads));
      del.push_back(run_mode(img, oracle, InteriorFill::Delaunay, delta,
                             spacing, threads));
    } else {
      del.push_back(run_mode(img, oracle, InteriorFill::Delaunay, delta,
                             spacing, threads));
      lat.push_back(run_mode(img, oracle, InteriorFill::Lattice, delta,
                             spacing, threads));
    }
    std::fprintf(stderr,
                 "round %d: lattice %.3f us/el (H %.3f)  delaunay %.3f us/el "
                 "(H %.3f)\n",
                 r, lat.back().us_per_element, lat.back().hausdorff,
                 del.back().us_per_element, del.back().hausdorff);
  }

  std::vector<double> lat_us, del_us;
  for (const Sample& s : lat) lat_us.push_back(s.us_per_element);
  for (const Sample& s : del) del_us.push_back(s.us_per_element);
  const double speedup = median(del_us) / median(lat_us);

  std::printf("{\n");
  std::printf(
      "  \"config\": {\"phantom\": \"ellipsoid\", \"size\": %d, "
      "\"delta\": %.3f, \"lattice_spacing\": %.3f, \"threads\": %d, "
      "\"rounds\": %d},\n",
      n, delta, spacing, threads, rounds);
  std::printf("  \"modes\": {\n");
  print_mode("lattice", lat);
  std::printf(",\n");
  print_mode("delaunay", del);
  std::printf("\n  },\n");
  std::printf("  \"throughput_ratio_delaunay_over_lattice\": %.2f\n", speedup);
  std::printf("}\n");
  return speedup >= 3.0 ? 0 : 1;
}
