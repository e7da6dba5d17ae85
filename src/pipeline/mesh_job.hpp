// One meshing job, end to end: the shared pipeline behind the CLI and the
// serving daemon.
//
//   JobSpec spec;                     // input + knobs (value type)
//   spec.phantom = "ball"; spec.mesh.delta = 1.0;
//   MeshJob job(spec);
//   const JobArtifacts& art = job.run();   // image -> EDT -> refine ->
//                                          // extract -> smooth -> reports
//   telemetry::RunManifest man = job.build_manifest("pi2m_cli");
//
// Extracted from apps/pi2m_cli.cpp so the daemon cannot drift from the CLI:
// both construct a JobSpec and call run(). The serving layer adds hooks —
// a cancellation token checked at refinement-loop boundaries, a shared
// EdtCache so repeat images skip the feature transform, and warm recycled
// arenas — all of which are no-ops for the one-shot CLI path.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pi2m.hpp"
#include "core/smoothing.hpp"
#include "core/validate.hpp"
#include "imaging/edt_cache.hpp"
#include "metrics/hausdorff.hpp"
#include "metrics/quality.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_manifest.hpp"

namespace pi2m {

/// Everything one job needs, as a plain value (protocol-decodable). The
/// knobs' flags, wire keys, ranges and help live in pipeline/job_options.
struct JobSpec {
  // --- input: exactly one of the three ---
  std::string input_path;  ///< segmented MetaImage (.mha)
  std::string phantom;     ///< ball|shells|abdominal|knee|head_neck|vessels
  int phantom_size = 64;
  /// Pre-decoded volume (inline protocol submissions, tests). Shared so
  /// specs stay cheap to copy.
  std::shared_ptr<const LabeledImage3D> inline_image;

  // --- preprocessing ---
  int downsample = 1;  ///< majority-vote factor, 1 = off
  int crop_pad = -1;   ///< crop to foreground bbox + pad; <0 = off

  // --- meshing + post ---
  /// delta/rho/threads/cm/lb/scheduler knobs. MeshingOptions itself makes
  /// delta "required"; at the job-spec layer it defaults to the historical
  /// CLI/protocol default of 1.0 world unit.
  MeshingOptions mesh = [] {
    MeshingOptions o;
    o.delta = 1.0;
    return o;
  }();
  /// Uniform volume sizing field (R5); >0 installs mesh.size_function.
  double uniform_size = 0.0;
  int smooth = 0;       ///< quality-guarded smoothing iterations
  bool want_report = false;      ///< quality + Hausdorff fidelity
  bool want_validation = false;  ///< structural mesh validation

  // --- outputs (written by run(); formats by extension) ---
  std::vector<std::string> outputs;  ///< see output_formats()
};

/// An output file format, chosen by the path's extension.
struct OutputFormat {
  const char* extension;
  bool (*write)(const TetMesh& mesh, const std::string& path);
};

/// The formats run() writes. The one list: --out's check and help text
/// read it too.
std::span<const OutputFormat> output_formats();

/// The format `path` ends in, or nullptr.
const OutputFormat* output_format_of(std::string_view path);

struct JobArtifacts {
  bool ok = false;          ///< completed refinement + wrote every output
  bool cancelled = false;   ///< the cancel token fired mid-run
  std::string error;        ///< human-readable failure (when !ok)

  LabeledImage3D image;     ///< empty when an EdtCache entry is pinned
  const LabeledImage3D* image_view = nullptr;  ///< the image actually meshed

  TetMesh mesh;
  RefineOutcome outcome;
  bool edt_cache_hit = false;
  double queue_wait_sec = 0.0;  ///< filled by the serving layer
  double extract_sec = 0.0;
  double smooth_sec = 0.0;
  double quality_sec = 0.0;
  double hausdorff_sec = 0.0;
  double validate_sec = 0.0;
  double write_sec = 0.0;  ///< every output file
  std::optional<SmoothingReport> smoothing;
  std::optional<QualityReport> quality;
  std::optional<HausdorffResult> hausdorff;
  std::optional<MeshValidation> validation;
  /// Unified snapshot of every metric the job produced (refine.*,
  /// predicates.*, mesh.*, quality.*, ...).
  telemetry::MetricsRegistry metrics;
};

class MeshJob {
 public:
  explicit MeshJob(JobSpec spec);

  /// Serving hooks; call before run().
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }
  void set_edt_cache(EdtCache* cache) { edt_cache_ = cache; }
  /// Queue wait measured by the serving layer; lands in the manifest's
  /// phase timings ahead of edt/refine.
  void set_queue_wait(double seconds) { art_.queue_wait_sec = seconds; }

  /// Loads/synthesizes the input image and applies downsample/crop.
  /// Idempotent; run() calls it implicitly. Returns false on input errors
  /// (artifacts().error says why).
  bool prepare();

  /// The image the job will mesh; valid after a successful prepare().
  [[nodiscard]] const LabeledImage3D& image() const;

  /// Runs the full pipeline. The returned artifacts live as long as the
  /// job. Safe to call once.
  const JobArtifacts& run();

  [[nodiscard]] const JobArtifacts& artifacts() const { return art_; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }

  /// Builds the versioned run manifest for this job: config echo of the
  /// spec (echo_job_options), phase timings (edt, refine, extract, smooth,
  /// reports, write), and the metrics snapshot.
  [[nodiscard]] telemetry::RunManifest build_manifest(
      const std::string& tool) const;

 private:
  bool fail(std::string msg);

  JobSpec spec_;
  const std::atomic<bool>* cancel_ = nullptr;
  EdtCache* edt_cache_ = nullptr;
  std::shared_ptr<const EdtCache::Entry> pinned_;  ///< cache entry in use
  JobArtifacts art_;
  bool prepared_ = false;
  bool ran_ = false;
};

}  // namespace pi2m
