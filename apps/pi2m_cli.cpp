// pi2m — command-line image-to-mesh converter.
//
// Converts a multi-label segmented image (MetaImage .mha, or a built-in
// phantom) into a quality tetrahedral mesh, with the full set of paper
// knobs exposed.
//
// The pipeline itself (load -> EDT -> refine -> extract -> smooth ->
// reports) lives in pipeline/mesh_job.hpp, shared with the serving daemon
// (apps/pi2m_serve.cpp); this file is flag parsing and console output.
//
// Examples:
//   pi2m --input brain.mha --delta 1.0 --threads 8 --out mesh.vtk
//   pi2m --phantom abdominal --size 96 --delta 0.8 --out abd.mesh
//        --smooth 3 --report     (one command line)
//   pi2m --phantom knee --size 64 --cm global --lb rws --stats
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "io/image_io.hpp"
#include "pipeline/mesh_job.hpp"
#include "telemetry/telemetry.hpp"

namespace {

void usage() {
  std::puts(
      "pi2m - parallel image-to-mesh conversion (PI2M reproduction)\n"
      "\n"
      "input (one of):\n"
      "  --input FILE.mha        segmented MetaImage (MET_UCHAR/USHORT, LOCAL)\n"
      "  --phantom NAME          ball|shells|abdominal|knee|head_neck|vessels\n"
      "                          |ellipsoid|thick_shell (volume-dominated)\n"
      "  --size N                phantom grid size (default 64)\n"
      "  --downsample F          majority-vote downsample by integer factor\n"
      "  --crop-foreground PAD   crop to the foreground bounding box + PAD\n"
      "\n"
      "meshing:\n"
      "  --delta D               surface sample spacing, world units (default 1.0)\n"
      "  --rho R                 radius-edge bound (default 2.0)\n"
      "  --facet-angle A         min boundary planar angle, deg (default 30)\n"
      "  --uniform-size S        uniform sizing field (R5)\n"
      "  --interior NAME         lattice (BCC template bulk + Delaunay skin,\n"
      "                          default) | delaunay (refine everywhere; the\n"
      "                          pre-hybrid behaviour / A-B baseline)\n"
      "  --lattice-spacing A     BCC cube size, world units (default 2*delta)\n"
      "  --threads T             worker threads (default 1)\n"
      "  --cm NAME               aggressive|random|global|local (default local)\n"
      "  --lb NAME               rws|hws (default hws)\n"
      "\n"
      "scheduler:\n"
      "  --topology auto|CxS     'auto' probes the host's real socket layout\n"
      "                          (/sys); 'CxS' declares C cores/socket and S\n"
      "                          sockets/blade, e.g. 8x2 (the default)\n"
      "  --pin                   pin worker threads to cpus per the topology\n"
      "  --park-spin-us N        idle spin budget before a timed park\n"
      "                          (default 50)\n"
      "\n"
      "post-processing / output:\n"
      "  --smooth N              quality-guarded smoothing iterations\n"
      "  --out FILE              .vtk | .off | .mesh | .stl | .p2m (repeatable)\n"
      "  --save-image FILE.mha   write the (phantom) input image\n"
      "  --report                print quality + fidelity report\n"
      "  --validate              run structural mesh validation\n"
      "  --stats                 print parallel runtime statistics\n"
      "\n"
      "telemetry:\n"
      "  --trace FILE.json       record a Chrome trace-event timeline of the\n"
      "                          run (open in chrome://tracing or Perfetto)\n"
      "  --json-report FILE      write a versioned JSON run manifest (config,\n"
      "                          phase timings, all metrics)\n"
      "  --metrics               print every collected metric, one\n"
      "                          'name value' per line\n");
}

struct Args {
  pi2m::JobSpec spec;
  std::string save_image;
  bool report = false;
  bool stats = false;
  bool validate = false;
  std::string trace;
  std::string json_report;
  bool metrics = false;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  pi2m::JobSpec& s = a.spec;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", key.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (key == "--help" || key == "-h") {
      usage();
      std::exit(0);
    } else if (key == "--input") {
      s.input_path = next();
    } else if (key == "--phantom") {
      s.phantom = next();
    } else if (key == "--size") {
      s.phantom_size = std::atoi(next());
    } else if (key == "--downsample") {
      s.downsample = std::atoi(next());
    } else if (key == "--crop-foreground") {
      s.crop_pad = std::atoi(next());
    } else if (key == "--delta") {
      s.mesh.delta = std::atof(next());
    } else if (key == "--rho") {
      s.mesh.radius_edge_bound = std::atof(next());
    } else if (key == "--facet-angle") {
      s.mesh.min_planar_angle_deg = std::atof(next());
    } else if (key == "--uniform-size") {
      s.uniform_size = std::atof(next());
    } else if (key == "--interior") {
      const std::string name = next();
      const auto fill = pi2m::parse_interior_name(name);
      if (!fill) {
        std::fprintf(stderr, "unknown interior fill '%s'\n", name.c_str());
        std::exit(2);
      }
      s.mesh.interior = *fill;
    } else if (key == "--lattice-spacing") {
      s.mesh.lattice_spacing = std::atof(next());
    } else if (key == "--threads") {
      s.mesh.threads = std::atoi(next());
    } else if (key == "--cm") {
      const std::string name = next();
      const auto cm = pi2m::parse_cm_name(name);
      if (!cm) {
        std::fprintf(stderr, "unknown contention manager '%s'\n",
                     name.c_str());
        std::exit(2);
      }
      s.mesh.contention_manager = *cm;
    } else if (key == "--lb") {
      const std::string name = next();
      const auto lb = pi2m::parse_lb_name(name);
      if (!lb) {
        std::fprintf(stderr, "unknown load balancer '%s'\n", name.c_str());
        std::exit(2);
      }
      s.mesh.load_balancer = *lb;
    } else if (key == "--topology") {
      s.topology_desc = next();
      if (s.topology_desc == "auto") {
        s.mesh.topology_auto = true;
      } else {
        // "CxS": C cores per socket, S sockets per blade.
        int c = 0, so = 0;
        if (std::sscanf(s.topology_desc.c_str(), "%dx%d", &c, &so) != 2 ||
            c < 1 || so < 1) {
          std::fprintf(stderr, "bad --topology '%s' (want auto or CxS)\n",
                       s.topology_desc.c_str());
          std::exit(2);
        }
        s.mesh.topology.cores_per_socket = c;
        s.mesh.topology.sockets_per_blade = so;
      }
    } else if (key == "--pin") {
      s.mesh.pin = true;
    } else if (key == "--park-spin-us") {
      s.mesh.park_spin_us = std::atoi(next());
    } else if (key == "--smooth") {
      s.smooth = std::atoi(next());
    } else if (key == "--out") {
      s.outputs.push_back(next());
    } else if (key == "--save-image") {
      a.save_image = next();
    } else if (key == "--report") {
      a.report = true;
    } else if (key == "--validate") {
      a.validate = true;
    } else if (key == "--stats") {
      a.stats = true;
    } else if (key == "--trace") {
      a.trace = next();
    } else if (key == "--json-report") {
      a.json_report = next();
    } else if (key == "--metrics") {
      a.metrics = true;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", key.c_str());
      return std::nullopt;
    }
  }
  if (s.input_path.empty() && s.phantom.empty()) {
    std::fprintf(stderr, "need --input or --phantom (try --help)\n");
    return std::nullopt;
  }
  // Output formats are validated up front so a typo fails before an
  // hour-long refinement, not after.
  for (const std::string& out : s.outputs) {
    const auto dot = out.rfind('.');
    const std::string ext = dot == std::string::npos ? "" : out.substr(dot);
    if (ext != ".vtk" && ext != ".off" && ext != ".mesh" && ext != ".stl" &&
        ext != ".p2m") {
      std::fprintf(stderr, "unknown output format: %s\n", out.c_str());
      std::exit(2);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse(argc, argv);
  if (!args) return 2;

  // The manifest / --metrics snapshot always carries the quality, fidelity
  // and validation numbers, so compute them whenever any consumer asks.
  const bool want_registry = !args->json_report.empty() || args->metrics;
  args->spec.want_report = args->report || want_registry;
  args->spec.want_validation = args->validate || want_registry;

  pi2m::MeshJob job(std::move(args->spec));

  // --- input image ---
  if (!job.prepare()) {
    std::fprintf(stderr, "%s\n", job.artifacts().error.c_str());
    return job.artifacts().error.rfind("failed to read", 0) == 0 ? 1 : 2;
  }
  const pi2m::LabeledImage3D& img = job.image();
  std::printf("image: %dx%dx%d, %zu tissue label(s)\n", img.nx(), img.ny(),
              img.nz(), img.labels_present().size());
  if (!args->save_image.empty() &&
      !pi2m::io::write_mha(img, args->save_image)) {
    std::fprintf(stderr, "failed to write %s\n", args->save_image.c_str());
    return 1;
  }

  // Open the tracing session before meshing so the EDT (computed in the
  // Refiner constructor) lands on the timeline too.
  if (!args->trace.empty()) {
    pi2m::telemetry::begin();
    pi2m::telemetry::set_thread_name("main");
  }
  auto finish_trace = [&]() {
    if (args->trace.empty()) return true;
    pi2m::telemetry::end();
    const std::uint64_t dropped = pi2m::telemetry::dropped_events();
    if (dropped > 0) {
      std::fprintf(stderr,
                   "trace: %llu event(s) dropped (ring overflow); oldest "
                   "events are missing\n",
                   static_cast<unsigned long long>(dropped));
    }
    if (!pi2m::telemetry::write_chrome_trace(args->trace)) {
      std::fprintf(stderr, "failed to write %s\n", args->trace.c_str());
      return false;
    }
    std::printf("wrote %s (%zu trace events)\n", args->trace.c_str(),
                pi2m::telemetry::event_count());
    return true;
  };

  // --- the pipeline: EDT -> refine -> extract -> smooth -> reports ---
  const pi2m::JobArtifacts& art = job.run();
  if (!art.outcome.completed) {
    std::fprintf(stderr, "meshing did not complete (livelock=%d, budget=%d)\n",
                 art.outcome.livelocked, art.outcome.budget_exhausted);
    finish_trace();  // a partial timeline is exactly what diagnoses this
    return 1;
  }
  std::printf("mesh: %zu tetrahedra, %zu points, %zu interface triangles\n",
              art.mesh.num_tets(), art.mesh.num_points(),
              art.mesh.boundary_tris.size());
  const double eps = art.outcome.wall_sec > 0
                         ? static_cast<double>(art.mesh.num_tets()) /
                               art.outcome.wall_sec
                         : 0.0;
  std::printf("time: EDT %.2fs + refinement %.2fs  (%.0f elements/s)\n",
              art.outcome.edt_sec, art.outcome.wall_sec, eps);
  if (art.outcome.lattice_tets > 0) {
    std::printf("lattice: %zu interior tets from %zu cubes, %zu interface "
                "vertices (fill %.3fs, seed %.3fs)\n",
                art.outcome.lattice_tets, art.outcome.lattice_cubes,
                art.outcome.lattice_seeds, art.outcome.lattice_fill_sec,
                art.outcome.lattice_seed_sec);
  }
  if (art.smoothing) {
    std::printf("smoothing: %zu moves (%zu rejected), min dihedral %.2f -> "
                "%.2f deg\n",
                art.smoothing->moves_accepted, art.smoothing->moves_rejected,
                art.smoothing->min_dihedral_before,
                art.smoothing->min_dihedral_after);
  }

  // All traced phases are over; flush the timeline.
  if (!finish_trace()) return 1;

  // --- reports ---
  if (args->report) {
    std::printf("quality: max radius-edge %.2f, dihedral [%.1f, %.1f] deg, "
                "min boundary angle %.1f deg\n",
                art.quality->max_radius_edge, art.quality->min_dihedral_deg,
                art.quality->max_dihedral_deg,
                art.quality->min_boundary_planar_deg);
    std::printf("fidelity: Hausdorff %.2f (mesh->surf %.2f, surf->mesh %.2f)\n",
                art.hausdorff->symmetric(), art.hausdorff->mesh_to_surface,
                art.hausdorff->surface_to_mesh);
  }
  bool validation_failed = false;
  if (args->validate) {
    if (art.validation->ok) {
      std::printf("validation: OK (%zu connected component(s), %zu "
                  "non-manifold boundary edges)\n",
                  art.validation->connected_components,
                  art.validation->boundary_edges_nonmanifold);
    } else {
      std::printf("validation: FAILED\n");
      for (const auto& e : art.validation->errors) std::printf("  - %s\n",
                                                               e.c_str());
      validation_failed = true;  // exit 1 after the manifest is written
    }
  }
  if (args->stats) {
    const auto& t = art.outcome.totals;
    std::printf("stats: %llu ops (%llu ins / %llu rem), %llu rollbacks\n",
                static_cast<unsigned long long>(t.operations),
                static_cast<unsigned long long>(t.insertions),
                static_cast<unsigned long long>(t.removals),
                static_cast<unsigned long long>(t.rollbacks));
    if (art.outcome.lattice_seeds > 0) {
      std::printf("seeding: %zu of %zu interface seeds deferred by lock "
                  "conflicts\n",
                  art.outcome.lattice_seed_deferred, art.outcome.lattice_seeds);
    }
    std::printf("overhead: contention %.2fs, load-balance %.2fs, rollback "
                "%.2fs\n",
                t.contention_sec, t.loadbalance_sec, t.rollback_sec);
    std::printf("steals: %llu intra-socket, %llu intra-blade, %llu "
                "inter-blade\n",
                static_cast<unsigned long long>(t.steals_intra_socket),
                static_cast<unsigned long long>(t.steals_intra_blade),
                static_cast<unsigned long long>(t.steals_inter_blade));
    std::printf("rules: R1=%llu R2=%llu R3=%llu R4=%llu R5=%llu\n",
                static_cast<unsigned long long>(art.outcome.rule_counts[1]),
                static_cast<unsigned long long>(art.outcome.rule_counts[2]),
                static_cast<unsigned long long>(art.outcome.rule_counts[3]),
                static_cast<unsigned long long>(art.outcome.rule_counts[4]),
                static_cast<unsigned long long>(art.outcome.rule_counts[5]));
  }

  // --- unified metrics / manifest ---
  if (want_registry) {
    if (args->metrics) {
      for (const auto& [name, m] : art.metrics.all()) {
        switch (m.kind) {
          case pi2m::telemetry::MetricValue::Kind::U64:
            std::printf("%s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(m.u));
            break;
          case pi2m::telemetry::MetricValue::Kind::F64:
            std::printf("%s %.9g\n", name.c_str(), m.d);
            break;
          case pi2m::telemetry::MetricValue::Kind::Bool:
            std::printf("%s %s\n", name.c_str(), m.b ? "true" : "false");
            break;
        }
      }
    }
    if (!args->json_report.empty()) {
      const pi2m::telemetry::RunManifest man = job.build_manifest("pi2m_cli");
      if (!man.write(args->json_report)) {
        std::fprintf(stderr, "failed to write %s\n",
                     args->json_report.c_str());
        return 1;
      }
      std::printf("wrote %s\n", args->json_report.c_str());
    }
  }
  // An explicitly requested validation failure trumps success output, but
  // only after every report artifact has been written.
  if (validation_failed) return 1;

  // --- outputs (already written by the job; report or fail) ---
  if (!art.ok) {
    std::fprintf(stderr, "%s\n", art.error.c_str());
    return 1;
  }
  for (const std::string& out : job.spec().outputs) {
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}
