#include "pipeline/mesh_job.hpp"

#include <utility>

#include "core/sizing.hpp"
#include "imaging/phantom.hpp"
#include "runtime/stats.hpp"
#include "support/common.hpp"
#include "imaging/resample.hpp"
#include "io/image_io.hpp"
#include "io/mesh_serialize.hpp"
#include "io/writers.hpp"
#include "predicates/predicates.hpp"
#include "telemetry/collectors.hpp"

namespace pi2m {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

PredicateCounters counters_delta(const PredicateCounters& a,
                                 const PredicateCounters& b) {
  // Per-job view of the process-global counters. Concurrent jobs interleave
  // their counts; the delta is exact for solo runs and approximate (but
  // still monotone and roughly proportional) under concurrency.
  PredicateCounters d;
  d.orient3d_calls = b.orient3d_calls - a.orient3d_calls;
  d.orient3d_adapt = b.orient3d_adapt - a.orient3d_adapt;
  d.orient3d_exact = b.orient3d_exact - a.orient3d_exact;
  d.insphere_calls = b.insphere_calls - a.insphere_calls;
  d.insphere_adapt = b.insphere_adapt - a.insphere_adapt;
  d.insphere_exact = b.insphere_exact - a.insphere_exact;
  return d;
}

}  // namespace

std::optional<CmKind> parse_cm_name(const std::string& s) {
  if (s == "aggressive") return CmKind::Aggressive;
  if (s == "random") return CmKind::Random;
  if (s == "global") return CmKind::Global;
  if (s == "local") return CmKind::Local;
  return std::nullopt;
}

std::optional<LbKind> parse_lb_name(const std::string& s) {
  if (s == "rws") return LbKind::RWS;
  if (s == "hws") return LbKind::HWS;
  return std::nullopt;
}

const char* cm_name(CmKind k) {
  switch (k) {
    case CmKind::Aggressive: return "aggressive";
    case CmKind::Random: return "random";
    case CmKind::Global: return "global";
    case CmKind::Local: return "local";
  }
  return "?";
}

const char* lb_name(LbKind k) {
  switch (k) {
    case LbKind::RWS: return "rws";
    case LbKind::HWS: return "hws";
  }
  return "?";
}

MeshJob::MeshJob(JobSpec spec) : spec_(std::move(spec)) {}

bool MeshJob::fail(std::string msg) {
  art_.ok = false;
  art_.error = std::move(msg);
  return false;
}

const LabeledImage3D& MeshJob::image() const {
  PI2M_CHECK(art_.image_view != nullptr, "MeshJob::prepare() not run");
  return *art_.image_view;
}

bool MeshJob::prepare() {
  if (prepared_) return art_.error.empty();
  prepared_ = true;

  if (!spec_.input_path.empty()) {
    std::string error;
    auto loaded = io::read_mha(spec_.input_path, &error);
    if (!loaded) {
      return fail("failed to read " + spec_.input_path + ": " + error);
    }
    art_.image = std::move(*loaded);
  } else if (!spec_.phantom.empty()) {
    const std::string& p = spec_.phantom;
    const int n = spec_.phantom_size;
    if (n < 2 || n > 4096) {
      return fail("phantom size out of range: " + std::to_string(n));
    }
    if (p == "ball") {
      art_.image = phantom::ball(n);
    } else if (p == "shells") {
      art_.image = phantom::concentric_shells(n);
    } else if (p == "abdominal") {
      art_.image = phantom::abdominal(n, n, n);
    } else if (p == "knee") {
      art_.image = phantom::knee(n, n, n);
    } else if (p == "head_neck") {
      art_.image = phantom::head_neck(n, n, n);
    } else if (p == "vessels") {
      art_.image = phantom::vessels(n);
    } else if (p == "ellipsoid") {
      art_.image = phantom::ellipsoid(n);
    } else if (p == "thick_shell") {
      art_.image = phantom::thick_shell(n);
    } else {
      return fail("unknown phantom '" + p + "'");
    }
  } else if (spec_.inline_image != nullptr) {
    art_.image = *spec_.inline_image;
  } else {
    return fail("no input: need input_path, phantom, or inline_image");
  }

  if (spec_.downsample > 1) {
    art_.image = downsample(art_.image, spec_.downsample);
  }
  if (spec_.crop_pad >= 0) {
    Voxel lo, hi;
    foreground_bounds(art_.image, spec_.crop_pad, &lo, &hi);
    art_.image = crop(art_.image, lo, hi);
  }
  art_.image_view = &art_.image;

  if (spec_.uniform_size > 0 && !spec_.mesh.size_function) {
    spec_.mesh.size_function = sizing::uniform(spec_.uniform_size);
  }
  return true;
}

const JobArtifacts& MeshJob::run() {
  PI2M_CHECK(!ran_, "MeshJob::run() may only run once");
  ran_ = true;
  if (!prepare()) return art_;

  // --- EDT (cached or per-run) + refinement + extraction ---
  MeshingOptions opt = spec_.mesh;
  opt.cancel = cancel_;
  std::shared_ptr<const IsosurfaceOracle> warm;
  if (edt_cache_ != nullptr) {
    // The cache owns a stable image copy; mesh against *that* copy so the
    // pinned oracle and the refined image are the same object.
    pinned_ = edt_cache_->acquire(*art_.image_view, std::max(1, opt.threads),
                                  &art_.edt_cache_hit);
    art_.image = LabeledImage3D{};  // drop the duplicate copy
    art_.image_view = &pinned_->image;
    warm = pinned_->oracle;
  }

  const PredicateCounters pred0 = predicate_counters();
  MeshingResult res = mesh_image(*art_.image_view, opt, warm);
  art_.outcome = res.outcome;
  art_.extract_sec = res.extract_sec;
  art_.mesh = std::move(res.mesh);
  art_.cancelled = art_.outcome.cancelled;

  if (!art_.outcome.completed) {
    if (art_.cancelled) {
      fail("cancelled");
    } else {
      fail(std::string("meshing did not complete (") +
           (art_.outcome.livelocked ? "livelock" : "budget exhausted") + ")");
    }
  }

  // Smoothing + fidelity reuse the oracle the mesh was refined against
  // (the pinned one on an EDT cache hit).
  const std::shared_ptr<const IsosurfaceOracle> post_oracle =
      std::move(res.oracle);

  // --- optional smoothing ---
  if (art_.outcome.completed && spec_.smooth > 0) {
    SmoothingOptions sopt;
    sopt.iterations = spec_.smooth;
    sopt.threads = opt.threads;
    const double t0 = now_sec();
    art_.smoothing = smooth_mesh(art_.mesh, *post_oracle, sopt);
    art_.smooth_sec = now_sec() - t0;
  }

  // --- reports ---
  if (art_.outcome.completed && spec_.want_report) {
    double t0 = now_sec();
    art_.quality = evaluate_quality(art_.mesh);
    art_.quality_sec = now_sec() - t0;
    t0 = now_sec();
    art_.hausdorff = hausdorff_distance(art_.mesh, *post_oracle, 2);
    art_.hausdorff_sec = now_sec() - t0;
  }
  if (art_.outcome.completed && spec_.want_validation) {
    const double t0 = now_sec();
    art_.validation = validate_mesh(art_.mesh);
    art_.validate_sec = now_sec() - t0;
  }

  // --- unified metrics snapshot ---
  telemetry::collect_outcome(art_.metrics, art_.outcome);
  telemetry::collect_predicates(
      art_.metrics, counters_delta(pred0, predicate_counters()));
  telemetry::collect_mesh(art_.metrics, art_.mesh);
  telemetry::collect_throughput(art_.metrics, art_.mesh,
                                art_.outcome.lattice_tets,
                                art_.outcome.wall_sec);
  if (art_.smoothing) telemetry::collect_smoothing(art_.metrics,
                                                   *art_.smoothing);
  if (art_.quality) telemetry::collect_quality(art_.metrics, *art_.quality);
  if (art_.hausdorff) {
    telemetry::collect_hausdorff(art_.metrics, *art_.hausdorff);
  }
  if (art_.validation) {
    telemetry::collect_validation(art_.metrics, *art_.validation);
  }

  if (!art_.outcome.completed) return art_;

  // --- outputs ---
  const double write_t0 = now_sec();
  for (const std::string& out : spec_.outputs) {
    bool wrote;
    if (ends_with(out, ".vtk")) {
      wrote = io::write_vtk(art_.mesh, out);
    } else if (ends_with(out, ".off")) {
      wrote = io::write_off_surface(art_.mesh, out);
    } else if (ends_with(out, ".mesh")) {
      wrote = io::write_medit(art_.mesh, out);
    } else if (ends_with(out, ".stl")) {
      wrote = io::write_stl_surface(art_.mesh, out);
    } else if (ends_with(out, ".p2m")) {
      wrote = io::save_mesh(art_.mesh, out);
    } else {
      fail("unknown output format: " + out);
      return art_;
    }
    if (!wrote) {
      fail("failed to write " + out);
      return art_;
    }
  }
  art_.write_sec = now_sec() - write_t0;

  art_.ok = true;
  return art_;
}

telemetry::RunManifest MeshJob::build_manifest(const std::string& tool) const {
  telemetry::RunManifest man;
  man.tool = tool;
  if (!spec_.input_path.empty()) {
    man.set_config("input", spec_.input_path);
  } else if (!spec_.phantom.empty()) {
    man.set_config("input", "phantom:" + spec_.phantom);
    man.set_config("size", spec_.phantom_size);
  } else {
    man.set_config("input", "inline");
  }
  if (spec_.downsample > 1) man.set_config("downsample", spec_.downsample);
  if (spec_.crop_pad >= 0) man.set_config("crop_foreground", spec_.crop_pad);
  man.set_config("delta", spec_.mesh.delta);
  man.set_config("interior", interior_name(spec_.mesh.interior));
  if (spec_.mesh.lattice_spacing > 0) {
    man.set_config("lattice_spacing", spec_.mesh.lattice_spacing);
  }
  man.set_config("rho", spec_.mesh.radius_edge_bound);
  man.set_config("facet_angle", spec_.mesh.min_planar_angle_deg);
  if (spec_.uniform_size > 0) {
    man.set_config("uniform_size", spec_.uniform_size);
  }
  man.set_config("threads", spec_.mesh.threads);
  man.set_config("cm", cm_name(spec_.mesh.contention_manager));
  man.set_config("lb", lb_name(spec_.mesh.load_balancer));
  if (!spec_.topology_desc.empty()) {
    man.set_config("topology", spec_.topology_desc);
  }
  if (spec_.mesh.pin) man.set_config("pin", true);
  man.set_config("smooth", spec_.smooth);
  man.set_config("edt_cache_hit", art_.edt_cache_hit ? "true" : "false");
  if (art_.queue_wait_sec > 0) {
    man.add_phase("queue_wait", art_.queue_wait_sec);
  }
  man.add_phase("edt", art_.outcome.edt_sec);
  if (art_.outcome.lattice_tets > 0) {
    man.add_phase("lattice_fill", art_.outcome.lattice_fill_sec);
    man.add_phase("lattice_seed", art_.outcome.lattice_seed_sec);
  }
  man.add_phase("refine", art_.outcome.wall_sec);
  man.add_phase("extract", art_.extract_sec);
  if (spec_.smooth > 0) man.add_phase("smooth", art_.smooth_sec);
  if (art_.quality) man.add_phase("quality", art_.quality_sec);
  if (art_.hausdorff) man.add_phase("hausdorff", art_.hausdorff_sec);
  if (art_.validation) man.add_phase("validate", art_.validate_sec);
  if (art_.ok && !spec_.outputs.empty()) {
    man.add_phase("write", art_.write_sec);
  }
  man.metrics = art_.metrics;
  if (!art_.error.empty()) man.notes = art_.error;
  return man;
}

}  // namespace pi2m
