#include "core/refiner.hpp"

#include <thread>

#include "check/auditor.hpp"
#include "check/oplog.hpp"
#include "telemetry/telemetry.hpp"

namespace pi2m {
namespace {

/// The virtual box inflates the image bounds by this fraction of the
/// diagonal so that circumcenters of near-hull elements stay insertable.
constexpr double kBoxMarginFrac = 0.15;

/// Per-thread cell-arena bump block (see DelaunayMesh). Big enough to
/// amortize the shared-counter CAS and keep a thread's fresh cells on its
/// own cache lines; small enough that the tail stranded at termination is
/// noise against the arena capacity.
constexpr std::uint32_t kArenaBlock = 256;

/// Timed-park duration. Parks double as the liveness backstop for the
/// termination/done checks, so they must stay short.
constexpr std::uint64_t kParkTimeoutUs = 1000;

/// An idle thread spins/yields this long before each timed park: work
/// usually arrives within a few operations' latency.
constexpr double kParkSpinUs = 50;

/// Timeline sampling period (the Figure-6 bench's resolution).
constexpr double kTimelinePeriodSec = 0.02;

TimelineSample timeline_sample(const StatsTotals& t, double wall_sec) {
  return {wall_sec, t.contention_sec, t.loadbalance_sec, t.rollback_sec,
          t.operations};
}

}  // namespace

Refiner::Refiner(const LabeledImage3D& img, MeshingOptions opt,
                 std::shared_ptr<const IsosurfaceOracle> warm_oracle)
    : opt_(opt),
      img_(&img),
      topo_(std::max(1, opt.threads), opt.topology),
      stats_(static_cast<std::size_t>(std::max(1, opt.threads))) {
  opt_.threads = std::max(1, opt_.threads);
  PI2M_CHECK(opt_.delta > 0.0, "MeshingOptions::delta must be positive");

  if (warm_oracle != nullptr) {
    // EDT cache hit: the feature transform is already computed and shared.
    oracle_ = std::move(warm_oracle);
    edt_sec_ = 0.0;
  } else {
    const double t0 = now_sec();
    {
      PI2M_TRACE_SPAN("phase.edt", "phase");
      oracle_ = std::make_shared<IsosurfaceOracle>(img, opt_.threads);
    }
    edt_sec_ = now_sec() - t0;
  }

  const Aabb ib = img.bounds();
  const Aabb box = ib.inflated(kBoxMarginFrac * norm(ib.extent()));
  mesh_ = std::make_unique<DelaunayMesh>(box, kArenaBlock);
  geom_cache_ = std::make_unique<CellGeomCache>(mesh_->cell_capacity());

  // Cell size = 2x query radius: a query ball overlaps at most 8 cells.
  // (removal_factor 0 disables R6; the grid still needs a positive cell.)
  const double delta = opt_.delta;
  iso_grid_ = std::make_unique<SpatialHashGrid>(box, 2.0 * delta);
  cc_grid_ = std::make_unique<SpatialHashGrid>(
      box, 2.0 * std::max(opt_.removal_factor, 1.0) * delta);

  lb_ = make_load_balancer(opt_.load_balancer, topo_);
  CmContext cm_ctx;
  cm_ctx.done = &done_;
  cm_ctx.idle_threads = &idle_count_;
  cm_ctx.nthreads = opt_.threads;
  cm_ctx.seed = opt_.rng_seed;
  cm_ = make_contention_manager(opt_.contention_manager, cm_ctx);

  ctxs_.reserve(static_cast<std::size_t>(opt_.threads));
  for (int t = 0; t < opt_.threads; ++t) {
    ctxs_.push_back(std::make_unique<ThreadCtx>());
  }
}

void Refiner::drain_inbox(int tid) {
  ThreadCtx& ctx = *ctxs_[tid];
  ctx.inbox.drain([&](const PelEntry& e) { ctx.pel(e).push_back(e); });
}

void Refiner::requeue(ThreadCtx& ctx, const PelEntry& e) {
  ctx.pel(e).push_back(e);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
}

void Refiner::stop(std::atomic<bool>* reason) {
  if (reason != nullptr) reason->store(true, std::memory_order_release);
  done_.store(true, std::memory_order_release);
  cm_->wake_all();
  for (auto& c : ctxs_) c->parker.unpark();
}

bool Refiner::tag_near_surface(const std::array<Vec3, 4>& p) const {
  const Vec3 centroid = 0.25 * (p[0] + p[1] + p[2] + p[3]);
  double reach2 = 0.0;
  for (const Vec3& v : p) reach2 = std::max(reach2, distance2(centroid, v));
  const double d = oracle_->surface_distance_lower_bound(centroid);
  return d <= 2.0 * std::sqrt(reach2);
}

void Refiner::distribute_new_cells(int tid, const std::vector<CellId>& created) {
  ThreadCtx& ctx = *ctxs_[tid];
  ThreadStats& st = stats_[tid];
  st.cells_created.fetch_add(created.size(), std::memory_order_relaxed);

  // All new cells become refinement candidates; classification runs once,
  // at pop time (the paper classifies in the creator — running it in the
  // consumer halves the oracle work at the cost of slightly chattier PELs;
  // the classification outcome is identical).
  ctx.new_poor.clear();
  for (const CellId c : created) {
    const std::uint32_t gen = mesh_->cell_gen(c);
    if ((gen & 1u) == 0) continue;  // already re-retired by a racing thread
    const auto p = mesh_->positions(c);
    // Snapshot validation (see rules.cpp compute_core): a racing thread may
    // retire and recycle one of our fresh cells; the generation re-read
    // rejects a possibly-torn position read before anything is derived
    // from it.
    if (mesh_->cell_gen(c) != gen) continue;
    // The geometry cache is filled lazily by the first classify_cell of
    // (c, gen) rather than here: roughly half of freshly created cells are
    // re-retired by a later cavity before they are ever popped, so an
    // eager fill would pay the oracle work (EDT fetch + inside test) for
    // cells nobody classifies. Pops, retries and R3 neighbour scans of the
    // surviving cells all hit the lazily filled entry.
    ctx.new_poor.push_back({c, gen, tag_near_surface(p)});
  }
  if (ctx.new_poor.empty()) return;

  // Hand the fresh poor elements to a beggar when we have enough work of
  // our own (paper §4.4's counter threshold).
  if (static_cast<int>(ctx.pel_surface.size() + ctx.pel_volume.size()) >=
          opt_.give_threshold &&
      lb_->any_beggar()) {
    StealLevel level{};
    const int beggar = lb_->pop_beggar(tid, &level);
    // still_begging guards the lost-wakeup window of the old protocol: a
    // claimed beggar may already have left its idle loop (done flag, work
    // from another giver); its begging token is cleared only by its own
    // cancel, so a false here means "keep the batch locally". The residual
    // race (token read true, beggar cancels, batch lands after its final
    // drain) is benign: the giver raised outstanding_ before publishing, so
    // termination cannot fire until the beggar's next drain_inbox.
    if (beggar >= 0 && lb_->still_begging(beggar)) {
      ThreadCtx& bctx = *ctxs_[beggar];
      const auto n = static_cast<std::int64_t>(ctx.new_poor.size());
      outstanding_.fetch_add(n, std::memory_order_acq_rel);
      if (bctx.inbox.try_push_batch(ctx.new_poor.data(),
                                    ctx.new_poor.size())) {
        switch (level) {
          case StealLevel::IntraSocket:
            st.steals_intra_socket.fetch_add(1, std::memory_order_relaxed);
            telemetry::instant("steal.intra_socket", "lb", "to",
                               static_cast<std::uint64_t>(beggar));
            break;
          case StealLevel::IntraBlade:
            st.steals_intra_blade.fetch_add(1, std::memory_order_relaxed);
            telemetry::instant("steal.intra_blade", "lb", "to",
                               static_cast<std::uint64_t>(beggar));
            break;
          case StealLevel::InterBlade:
            st.steals_inter_blade.fetch_add(1, std::memory_order_relaxed);
            telemetry::instant("steal.inter_blade", "lb", "to",
                               static_cast<std::uint64_t>(beggar));
            break;
        }
        bctx.parker.unpark();
        st.unparks_sent.fetch_add(1, std::memory_order_relaxed);
        telemetry::instant("lb.unpark", "lb", "to",
                           static_cast<std::uint64_t>(beggar));
        return;
      }
      // Ring full (the beggar is drowning in hand-offs already): revert the
      // accounting and keep the batch on our own PELs.
      outstanding_.fetch_sub(n, std::memory_order_acq_rel);
    }
  }
  for (const PelEntry& e : ctx.new_poor) ctx.pel(e).push_back(e);
  outstanding_.fetch_add(static_cast<std::int64_t>(ctx.new_poor.size()),
                         std::memory_order_acq_rel);
}

void Refiner::handle_insertion(int tid, const PelEntry& e) {
  ThreadCtx& ctx = *ctxs_[tid];
  ThreadStats& st = stats_[tid];

  if (mesh_->cell_gen(e.cell) != e.gen) return;  // invalidated entry
  // One span covers classification + the speculative operation; rule 0
  // marks entries that classified clean (no operation attempted).
  telemetry::Span op_span("op.insert", "op");
  const Classification cls =
      classify_cell(*mesh_, e.cell, *oracle_, *iso_grid_, opt_,
                    lattice_.get(), geom_cache_.get(), tid);
  op_span.set_arg("rule", static_cast<std::uint64_t>(cls.rule));
  if (cls.rule == Rule::None) return;

  const double t0 = now_sec();
  // Circumcenter insertions (R2/R4/R5) skip the point-location walk: the
  // popped cell itself conflicts with its own circumcenter, so the cavity
  // BFS can be seeded there directly. Surface points (R1/R3) lie away from
  // the cell and use the walking path with the cell as hint.
  const bool is_circumcenter = cls.kind == VertexKind::Circumcenter;
  // R1's δ-sparsity gate was evaluated inside classify_cell; on an
  // oversubscribed core the thread can be descheduled before the insert
  // commits, during which racing threads may sample the same surface
  // patch. Re-check the gate against the current grid immediately before
  // the operation so the window shrinks from [classify, commit] to the
  // locked region, and re-examine the cell under the updated grid instead
  // of committing a near-duplicate sample.
  if (cls.rule == Rule::R1 &&
      iso_grid_->any_within(cls.point, opt_.delta)) {
    if (mesh_->cell_gen(e.cell) == e.gen) requeue(ctx, e);
    return;
  }
  // Tags the commit record with the triggering rule when the op-log
  // recorder is active (the kernel itself does not know about R1-R5).
  check::set_current_rule(static_cast<std::uint8_t>(cls.rule));
  const OpResult r =
      is_circumcenter
          ? insert_point_in_conflict(*mesh_, cls.point, cls.kind, e.cell,
                                     e.gen, tid, ctx.scratch)
          : insert_point(*mesh_, cls.point, cls.kind, e.cell, tid,
                         ctx.scratch);
  switch (r.status) {
    case OpStatus::Success: {
      st.operations.fetch_add(1, std::memory_order_relaxed);
      st.insertions.fetch_add(1, std::memory_order_relaxed);
      successful_ops_.fetch_add(1, std::memory_order_relaxed);
      rule_counts_[static_cast<std::size_t>(cls.rule)].fetch_add(
          1, std::memory_order_relaxed);
      cm_->on_success(tid);

      if (on_surface(cls.kind)) {
        iso_grid_->insert(cls.point, r.new_vertex);
        // R6: already-inserted circumcenters too close to the new surface
        // vertex must go.
        cc_grid_->collect_within(
            cls.point, opt_.removal_factor * opt_.delta,
            ctx.near_ccs);
        for (const auto& [pos, vid] : ctx.near_ccs) {
          ctx.removals.push_back(vid);
          outstanding_.fetch_add(1, std::memory_order_acq_rel);
        }
      } else {
        cc_grid_->insert(cls.point, r.new_vertex);
      }
      distribute_new_cells(tid, ctx.scratch.created);

      // The triggering cell may have survived (R1/R3 insert points away
      // from its circumsphere); re-examine it for the remaining rules.
      if (mesh_->cell_gen(e.cell) == e.gen) requeue(ctx, e);
      break;
    }
    case OpStatus::Conflict:
      st.rollbacks.fetch_add(1, std::memory_order_relaxed);
      st.add_rollback_time(now_sec() - t0);
      telemetry::instant(
          "rollback", "op", "by",
          static_cast<std::uint64_t>(std::max(r.conflicting_thread, 0)));
      requeue(ctx, e);
      cm_->on_rollback(tid, r.conflicting_thread, st);
      break;
    case OpStatus::Stale:
      requeue(ctx, e);
      std::this_thread::yield();
      break;
    case OpStatus::Failed:
      st.failed_ops.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Refiner::handle_removal(int tid, VertexId v) {
  ThreadCtx& ctx = *ctxs_[tid];
  ThreadStats& st = stats_[tid];

  const Vertex& vert = mesh_->vertex(v);
  if (vert.dead.load(std::memory_order_acquire) ||
      vert.kind != VertexKind::Circumcenter) {
    return;  // already removed, or a stale/foreign entry
  }
  const Vec3 pos = mesh_->position(v);

  telemetry::Span op_span("op.remove", "op");
  // 6 = the R6 removal rule (the Rule enum only covers insertion rules).
  check::set_current_rule(6);
  const double t0 = now_sec();
  const OpResult r = remove_vertex(*mesh_, v, tid, ctx.removal_scratch);
  switch (r.status) {
    case OpStatus::Success:
      st.operations.fetch_add(1, std::memory_order_relaxed);
      st.removals.fetch_add(1, std::memory_order_relaxed);
      successful_ops_.fetch_add(1, std::memory_order_relaxed);
      cm_->on_success(tid);
      cc_grid_->remove(pos, v);
      distribute_new_cells(tid, ctx.removal_scratch.created);
      break;
    case OpStatus::Conflict:
      st.rollbacks.fetch_add(1, std::memory_order_relaxed);
      st.add_rollback_time(now_sec() - t0);
      telemetry::instant(
          "rollback", "op", "by",
          static_cast<std::uint64_t>(std::max(r.conflicting_thread, 0)));
      ctx.removals.push_back(v);
      outstanding_.fetch_add(1, std::memory_order_acq_rel);
      cm_->on_rollback(tid, r.conflicting_thread, st);
      break;
    case OpStatus::Stale:
      ctx.removals.push_back(v);
      outstanding_.fetch_add(1, std::memory_order_acq_rel);
      std::this_thread::yield();
      break;
    case OpStatus::Failed:
      // Degenerate ball or hull-adjacent vertex: the circumcenter stays
      // (documented policy); drop it from the grid so R6 stops retrying.
      cc_grid_->remove(pos, v);
      st.failed_ops.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Refiner::idle_protocol(int tid) {
  ThreadCtx& ctx = *ctxs_[tid];
  ThreadStats& st = stats_[tid];

  // Never park the system's last runnable thread while others wait in a
  // contention list: rescue one first (see contention.hpp).
  cm_->wake_one();

  telemetry::Span idle_span("idle", "lb");
  const double t0 = now_sec();
  idle_count_.fetch_add(1, std::memory_order_acq_rel);
  lb_->enqueue_beggar(tid);
  // Adaptive idle policy: spin/yield for kParkSpinUs, then fall back to
  // timed parks. The park timeout bounds how stale the checks below can get
  // even if an unpark is missed, so liveness never depends on the wake-up
  // path alone.
  const double spin_deadline = t0 + 1e-6 * kParkSpinUs;
  while (true) {
    // A giver publishes into the inbox before it unparks us, so the inbox
    // is the one hand-off signal.
    if (done_.load(std::memory_order_acquire)) break;
    if (!ctx.inbox.empty()) break;
    // Global termination: everyone idle, nothing outstanding, nobody
    // blocked in a contention list.
    if (idle_count_.load(std::memory_order_acquire) == opt_.threads &&
        outstanding_.load(std::memory_order_acquire) == 0 &&
        cm_->blocked_count() == 0) {
      stop(nullptr);
      break;
    }
    // A thread may have blocked in the CM while this one was turning idle
    // (the CM's admission check read the idle count first). If every
    // thread is now blocked or idle, nobody else would ever wake it.
    const int blocked = cm_->blocked_count();
    if (blocked > 0 &&
        blocked + idle_count_.load(std::memory_order_acquire) >=
            opt_.threads) {
      cm_->wake_one();
    }
    if (now_sec() < spin_deadline) {
      std::this_thread::yield();
      continue;
    }
    telemetry::Span park_span("idle.park", "lb");
    st.parks.fetch_add(1, std::memory_order_relaxed);
    const double p0 = now_sec();
    ctx.parker.park(kParkTimeoutUs);
    st.add_parked(now_sec() - p0);
  }
  lb_->cancel(tid);
  idle_count_.fetch_sub(1, std::memory_order_acq_rel);
  st.add_loadbalance(now_sec() - t0);
  drain_inbox(tid);
}

void Refiner::worker(int tid) {
  telemetry::set_thread_name("worker " + std::to_string(tid));
  ThreadCtx& ctx = *ctxs_[tid];
  while (!done_.load(std::memory_order_acquire)) {
    if (successful_ops_.load(std::memory_order_relaxed) >= opt_.op_budget) {
      stop(&budget_exhausted_);
      break;
    }
    // Cooperative cancellation, checked at the loop boundary only: an
    // in-flight operation always commits or rolls back in full, so the
    // mesh is left structurally sound for inspection/teardown.
    if (opt_.cancel != nullptr &&
        opt_.cancel->load(std::memory_order_relaxed)) {
      stop(&cancelled_);
      break;
    }
    if (!ctx.removals.empty()) {
      const VertexId v = ctx.removals.front();
      ctx.removals.pop_front();
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      handle_removal(tid, v);
      continue;
    }
    if (ctx.pel_surface.empty() && ctx.pel_volume.empty()) drain_inbox(tid);
    if (ctx.pel_surface.empty() && ctx.pel_volume.empty()) {
      idle_protocol(tid);
      continue;
    }
    // LIFO within each priority class: refining the most recent cells
    // first lets local cascades retire their short-lived siblings before
    // they are ever classified, which measurably cuts wasted oracle work
    // versus FIFO. Surface work drains before volume work (see ThreadCtx).
    std::deque<PelEntry>& q =
        ctx.pel_surface.empty() ? ctx.pel_volume : ctx.pel_surface;
    const PelEntry e = q.back();
    q.pop_back();
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    handle_insertion(tid, e);
  }
}

void Refiner::monitor() {
  std::uint64_t last_ops = 0;
  double last_progress = now_sec();
  double next_sample = start_sec_;

  while (!done_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Backstop for fully-parked workers: the monitor notices a cancel
    // within its polling period and wakes everyone.
    if (opt_.cancel != nullptr &&
        opt_.cancel->load(std::memory_order_relaxed)) {
      stop(&cancelled_);
      break;
    }
    const double now = now_sec();
    const std::uint64_t ops = successful_ops_.load(std::memory_order_relaxed);
    if (ops != last_ops) {
      last_ops = ops;
      last_progress = now;
    } else if (now - last_progress > opt_.watchdog_sec) {
      // No operation completed anywhere for watchdog_sec: livelock (or a
      // wedged system); abort so the caller can report it (paper Table 1).
      stop(&livelocked_);
      break;
    }
    if (now >= next_sample) {
      timeline_.push_back(timeline_sample(aggregate(stats_), now - start_sec_));
      next_sample = now + kTimelinePeriodSec;
    }
  }
}

RefineOutcome Refiner::refine() {
  PI2M_CHECK(!refined_, "Refiner::refine() may only run once");
  refined_ = true;
  start_sec_ = now_sec();

  // Hybrid interior fill: build the BCC occupancy/templates from the EDT
  // and seed the interface lattice points into the quiescent mesh before
  // any worker starts — both phases count toward the refinement wall time
  // (they replace refinement work, so benches must see their cost).
  double lattice_fill_sec = 0.0, lattice_seed_sec = 0.0;
  std::size_t lattice_seed_deferred = 0;
  if (opt_.interior == InteriorFill::Lattice) {
    {
      PI2M_TRACE_SPAN("phase.lattice_fill", "phase");
      const double t0 = now_sec();
      lattice_ = std::make_unique<lattice::LatticeFill>(
          *oracle_, opt_.delta, opt_.lattice_spacing, opt_.threads);
      lattice_fill_sec = now_sec() - t0;
    }
    if (lattice_->empty()) {
      // No deep-interior band at this image/δ scale: degrade to the pure
      // Delaunay path (byte-identical to --interior=delaunay).
      lattice_.reset();
    } else {
      PI2M_TRACE_SPAN("phase.lattice_seed", "phase");
      const double t0 = now_sec();
      // Thread t seeds with tid t through worker t's scratch, so the cell
      // slots it retires land on the free list worker t refines with.
      std::vector<OpScratch*> scratch;
      scratch.reserve(ctxs_.size());
      for (auto& c : ctxs_) scratch.push_back(&c->scratch);
      lattice_seed_deferred = lattice_->seed_interface(*mesh_, scratch);
      lattice_seed_sec = now_sec() - t0;
    }
  }

  // Seed thread 0 with the initial cells (paper: "only the main thread
  // might have a non-empty PEL" right after the box triangulation) — after
  // lattice seeding, so the enumeration sees the post-seed triangulation.
  {
    ThreadCtx& ctx = *ctxs_[0];
    mesh_->for_each_alive_cell([&](CellId c) {
      ctx.pel_surface.push_back({c, mesh_->cell_gen(c), true});
      outstanding_.fetch_add(1, std::memory_order_relaxed);
    });
  }
  double wall = 0.0;
  {
    PI2M_TRACE_SPAN("phase.refine", "phase");
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(opt_.threads));
    for (int t = 0; t < opt_.threads; ++t) {
      pool.emplace_back([this, t] { worker(t); });
    }
    monitor();
    for (std::thread& th : pool) th.join();
    wall = now_sec() - start_sec_;
  }

  RefineOutcome out;
  if (opt_.audit_final) {
    // Phase boundary: the workers joined, so the mesh is quiescent and the
    // auditor's no-concurrent-mutation contract holds.
    PI2M_TRACE_SPAN("phase.audit", "phase");
    check::InvariantAuditor auditor(*mesh_);
    check::AuditReport rep = auditor.audit_full();
    out.audit_errors = std::move(rep.errors);
    if (!rep.ok && out.audit_errors.empty()) {
      out.audit_errors.push_back("audit failed (violations truncated)");
    }
  }
  out.completed = !livelocked_.load() && !budget_exhausted_.load() &&
                  !cancelled_.load();
  out.livelocked = livelocked_.load();
  out.budget_exhausted = budget_exhausted_.load();
  out.cancelled = cancelled_.load();
  out.wall_sec = wall;
  out.edt_sec = edt_sec_;
  if (lattice_ != nullptr) {
    const lattice::LatticeStats& ls = lattice_->stats();
    out.lattice_cubes = ls.cubes_filled;
    out.lattice_tets = ls.tets;
    out.lattice_seeds = ls.interface_vertices;
    out.lattice_fill_sec = lattice_fill_sec;
    out.lattice_seed_sec = lattice_seed_sec;
    out.lattice_seed_deferred = lattice_seed_deferred;
  }
  out.totals = aggregate(stats_);
  out.timeline = std::move(timeline_);
  out.timeline.push_back(timeline_sample(out.totals, wall));
  for (std::size_t i = 0; i < rule_counts_.size(); ++i) {
    out.rule_counts[i] = rule_counts_[i].load(std::memory_order_relaxed);
  }
  const CellGeomCache::CounterTotals ct = geom_cache_->totals();
  out.classify_cache_hits = ct.hits;
  out.classify_cache_misses = ct.misses;
  out.classify_csp_hits = ct.csp_hits;
  out.classify_csp_misses = ct.csp_misses;
  return out;
}

}  // namespace pi2m
