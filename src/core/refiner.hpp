// The PI2M parallel Delaunay refiner (paper Algorithm 1).
//
// Each worker thread owns a Poor Element List (PEL) and repeatedly: pops an
// element, re-validates and classifies it against R1-R5, speculatively
// applies the Delaunay operation (insertion, or the R6 removals triggered
// by surface-vertex insertions), and on success classifies the new cells —
// handing poor ones to begging threads per the load balancer. Rollbacks go
// through the configured contention manager. Termination is detected when
// every thread is idle and no work is outstanding; a watchdog converts
// global no-progress (livelock, possible under Aggressive/Random-CM) into
// an orderly abort so benchmarks can report it (paper Table 1 "livelock").
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/rules.hpp"
#include "core/spatial_grid.hpp"
#include "delaunay/operations.hpp"
#include "imaging/isosurface.hpp"
#include "lattice/lattice_fill.hpp"
#include "runtime/contention.hpp"
#include "runtime/mpsc_inbox.hpp"
#include "runtime/park.hpp"
#include "runtime/stats.hpp"
#include "runtime/topology.hpp"
#include "runtime/workstealing.hpp"

namespace pi2m {

/// Every meshing knob, taken as is by mesh_image() and the Refiner;
/// pipeline/job_options declares which ones a job may set.
struct MeshingOptions {
  // ---- the rules R1-R6 (see core/rules.hpp) ----
  /// Surface sample spacing δ (world units). The dominant knob: halving δ
  /// roughly multiplies the element count by 8 (paper §6.3's volume
  /// argument). Required: the Refiner refuses δ <= 0.
  double delta = 0.0;
  double radius_edge_bound = 2.0;      ///< ρ̄ (R4)
  double min_planar_angle_deg = 30.0;  ///< boundary facet angle bound (R3)
  SizeFunction size_function;          ///< optional volume sizing field (R5)
  double removal_factor = 2.0;         ///< R6 radius = removal_factor * δ

  /// Interior strategy: BCC-lattice bulk + Delaunay skin (default), or pure
  /// Delaunay refinement everywhere (the escape hatch / A-B baseline).
  /// Images too small to contain a deep-interior band degrade conservatively
  /// to a byte-identical pure-Delaunay run.
  InteriorFill interior = InteriorFill::Lattice;
  /// Lattice cube size in world units; <= 0 selects the automatic spacing
  /// 2δ (disphenoid edges then match the surface sample spacing scale).
  double lattice_spacing = 0.0;

  // ---- parallel runtime ----
  /// Refinement workers; the feature transform and extraction use as many.
  int threads = 1;
  CmKind contention_manager = CmKind::Local;
  LbKind load_balancer = LbKind::HWS;
  TopologySpec topology{};
  /// A thread only gives work when its PEL holds at least this many
  /// elements (paper §4.4; 5 "yielded the best results").
  int give_threshold = 5;
  /// Seed for randomized runtime decisions (Random-CM backoff streams).
  /// 0 = nondeterministic (std::random_device); non-zero makes the runtime's
  /// random choices reproducible for fuzzing and failure replay.
  std::uint64_t rng_seed = 0;

  // ---- capacities and safety valves ----
  std::size_t max_vertices = std::size_t{1} << 22;
  std::size_t max_cells = std::size_t{1} << 24;
  /// Abort (budget_exhausted) after this many successful operations.
  /// Termination is expected well before (paper [7,8]).
  std::uint64_t op_budget = std::uint64_t{1} << 40;
  /// Declare livelock when no operation completes for this long.
  double watchdog_sec = 30.0;

  // ---- scheduler & memory locality (see DESIGN.md) ----
  /// Pin worker thread `tid` to the cpu the topology maps it to
  /// (sched_setaffinity on Linux; a no-op elsewhere). A failed pin is
  /// silently ignored — it is a locality hint, not a correctness knob.
  bool pin = false;
  /// Probe /sys/devices/system/cpu for the real socket layout instead of
  /// using the declared `topology` spec; also yields the cpu map --pin uses.
  bool topology_auto = false;
  /// An idle thread spins/yields this long before each timed park. 0 parks
  /// immediately; larger values trade wake-up latency for cpu.
  int park_spin_us = 50;

  // ---- serving hooks (see DESIGN.md "Serving architecture") ----
  /// Cooperative cancellation: when non-null and set, every worker stops at
  /// its next refinement-loop boundary and refine() returns with
  /// RefineOutcome::cancelled (completed == false). The pointee must
  /// outlive refine(); the flag is only read, never cleared.
  const std::atomic<bool>* cancel = nullptr;
  /// Back the mesh arenas with process-wide recycled chunk blocks
  /// (support/arena_pool.hpp) so repeated runs in one process skip the
  /// page-fault warm-up. Results are identical either way.
  bool warm_arena = false;

  // ---- diagnostics ----
  bool record_timeline = false;  ///< sample Figure-6 style series
  double timeline_period_sec = 0.05;
  /// Run a full invariant audit (check/auditor.hpp) on the final mesh after
  /// the workers join — the refinement-phase boundary, where the mesh is
  /// quiescent. Violations land in RefineOutcome::audit_errors.
  bool audit_final = false;
};

/// The benchmark sources (perfbench/) still spell this name; drop the alias
/// with their next change.
using RefinerOptions = MeshingOptions;

struct RefineOutcome {
  bool completed = false;
  bool livelocked = false;
  bool budget_exhausted = false;
  bool cancelled = false;  ///< MeshingOptions::cancel fired mid-run
  double wall_sec = 0.0;   ///< refinement only (excludes EDT)
  double edt_sec = 0.0;    ///< preprocessing (feature transform)
  StatsTotals totals;
  std::vector<TimelineSample> timeline;
  std::size_t alive_cells = 0;  ///< all cells tiling the virtual box
  std::size_t mesh_cells = 0;   ///< elements with circumcenter inside O
  std::size_t vertices = 0;
  std::array<std::uint64_t, 6> rule_counts{};  ///< successful ops per rule
  /// Geometry-cache effectiveness over the whole run: core entry and
  /// memoized closest-surface-point lookups.
  std::uint64_t classify_cache_hits = 0;
  std::uint64_t classify_cache_misses = 0;
  std::uint64_t classify_csp_hits = 0;
  std::uint64_t classify_csp_misses = 0;
  /// Violations found by the final audit (audit_final); empty when the
  /// audit passed or was not requested.
  std::vector<std::string> audit_errors;
  /// Hybrid interior fill (all zero for pure-Delaunay runs or when the
  /// image had no deep-interior band).
  std::size_t lattice_cubes = 0;       ///< occupied lattice cubes
  std::size_t lattice_tets = 0;        ///< template tets the extraction appends
  std::size_t lattice_seeds = 0;       ///< protected interface vertices
  double lattice_fill_sec = 0.0;       ///< occupancy + template instantiation
  double lattice_seed_sec = 0.0;       ///< interface seeding (BRIO rounds)
  /// Seeds of the concurrent rounds that conflicted and were re-inserted by
  /// the calling thread after their round (see LatticeFill::seed_interface).
  std::size_t lattice_seed_deferred = 0;
};

class Refiner {
 public:
  Refiner(const LabeledImage3D& img, MeshingOptions opt);

  /// Serving-path constructor: re-uses a precomputed oracle (EDT cache hit)
  /// instead of computing the feature transform. `warm_oracle` must have
  /// been built over an image identical in content to `img` (it is queried,
  /// never mutated, so one oracle may serve concurrent refiners).
  /// RefineOutcome::edt_sec reports 0 for such runs.
  Refiner(const LabeledImage3D& img, MeshingOptions opt,
          std::shared_ptr<const IsosurfaceOracle> warm_oracle);

  /// Runs refinement to completion (or livelock/budget abort). Callable
  /// once per Refiner instance.
  RefineOutcome refine();

  [[nodiscard]] DelaunayMesh& mesh() { return *mesh_; }
  [[nodiscard]] const DelaunayMesh& mesh() const { return *mesh_; }
  [[nodiscard]] const IsosurfaceOracle& oracle() const { return *oracle_; }
  /// Shared handle on the same oracle, so post-processing can outlive the
  /// refiner without a second feature transform.
  [[nodiscard]] std::shared_ptr<const IsosurfaceOracle> shared_oracle() const {
    return oracle_;
  }
  [[nodiscard]] const MeshingOptions& options() const { return opt_; }
  /// The hybrid interior fill this run refined against; null for pure
  /// Delaunay runs (or an empty band). Extraction stitches against it.
  [[nodiscard]] const lattice::LatticeFill* lattice() const {
    return lattice_.get();
  }
  [[nodiscard]] const std::vector<ThreadStats>& thread_stats() const {
    return stats_;
  }

 private:
  struct PelEntry {
    CellId cell;
    std::uint32_t gen;
    bool near_surface;  ///< scheduling tag (cheap EDT proxy, not semantic)
  };

  /// Inbox ring capacity (entries). A hand-off batch is at most the cells
  /// of one cavity refill (tens), so thousands of slots make ring-full a
  /// cold path while keeping the ring ~48 KiB per thread.
  static constexpr std::size_t kInboxCapacity = 2048;

  /// Cheap O(1) scheduling tag: true when the cell plausibly intersects
  /// the surface neighbourhood. Mis-tags only affect processing order.
  /// Takes the already-loaded vertex positions so the caller can share the
  /// load with the geometry-cache fill.
  [[nodiscard]] bool tag_near_surface(const std::array<Vec3, 4>& p) const;

  struct alignas(64) ThreadCtx {
    /// Two-priority PEL: cells near ∂O (fidelity rules) are refined before
    /// interior cells (volume quality rules). Completing the local surface
    /// sample first means far fewer circumcenters are placed prematurely
    /// and later torn out by R6 — the paper's Phase-1 behaviour (Fig. 6).
    std::deque<PelEntry> pel_surface;
    std::deque<PelEntry> pel_volume;
    std::deque<VertexId> removals;
    /// Lock-free hand-off target: givers publish whole batches with one
    /// CAS reservation, this thread drains without taking a lock. A full
    /// ring rejects the batch and the giver keeps it locally — the PELs
    /// are unbounded, the transfer channel is not.
    MpscRing<PelEntry> inbox{kInboxCapacity};
    /// Futex/condvar parker for the idle protocol's timed parks.
    ThreadParker parker;
    OpScratch scratch;
    OpScratch removal_scratch;
    std::vector<std::pair<Vec3, VertexId>> near_ccs;  // R6 query buffer
    std::vector<PelEntry> new_poor;                   // distribution buffer
  };

  void worker(int tid);
  void handle_insertion(int tid, const PelEntry& e);
  void handle_removal(int tid, VertexId v);
  void distribute_new_cells(int tid, const std::vector<CellId>& created);
  void idle_protocol(int tid);
  void drain_inbox(int tid);
  /// Unparks every worker. Every done_-setter must call this so no thread
  /// sleeps out its park timeout before noticing termination.
  void wake_all_workers();
  void monitor();

  MeshingOptions opt_;
  /// The rule thresholds from opt_, plus the lattice guard once refine()
  /// has built the fill.
  RefineRulesConfig rules_;
  const LabeledImage3D* img_;
  /// Shared so the serving layer's EDT cache can hand one immutable oracle
  /// to many concurrent refiners; solo runs own theirs exclusively.
  std::shared_ptr<const IsosurfaceOracle> oracle_;
  std::unique_ptr<DelaunayMesh> mesh_;
  std::unique_ptr<CellGeomCache> geom_cache_;
  std::unique_ptr<SpatialHashGrid> iso_grid_;
  std::unique_ptr<SpatialHashGrid> cc_grid_;
  std::unique_ptr<lattice::LatticeFill> lattice_;  ///< null = pure Delaunay
  Topology topo_;
  std::unique_ptr<LoadBalancer> lb_;
  std::unique_ptr<ContentionManager> cm_;
  std::vector<ThreadStats> stats_;
  std::vector<std::unique_ptr<ThreadCtx>> ctxs_;

  std::atomic<bool> done_{false};
  std::atomic<bool> livelocked_{false};
  std::atomic<bool> budget_exhausted_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<int> idle_count_{0};
  std::atomic<std::uint64_t> successful_ops_{0};
  std::array<std::atomic<std::uint64_t>, 6> rule_counts_{};
  double edt_sec_ = 0.0;
  double start_sec_ = 0.0;
  std::vector<TimelineSample> timeline_;
  bool refined_ = false;
};

}  // namespace pi2m
