#include "serve/service.hpp"

#include <utility>

#include "runtime/stats.hpp"
#include "serve/protocol.hpp"
#include "support/arena_pool.hpp"

namespace pi2m::serve {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

MeshService::MeshService(ServiceConfig cfg)
    : cfg_(cfg),
      edt_cache_(cfg.edt_cache_bytes),
      queue_(cfg.queue_capacity) {
  const int n = std::max(1, cfg_.executors);
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

MeshService::~MeshService() { shutdown_now(); }

MeshService::SubmitResult MeshService::submit(
    JobSpec spec, Priority pri, std::function<void()> on_start) {
  SubmitResult res;
  if (draining_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    res.reject_code = kDraining;
    return res;
  }
  auto rec = std::make_shared<JobRecord>();
  rec->priority = pri;
  rec->spec = std::move(spec);
  rec->submit_sec = now_sec();
  rec->on_start = std::move(on_start);
  {
    // The id is issued under the lock so ids are dense and the record is
    // findable before try_push can possibly schedule it.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    rec->id = next_id_++;
    jobs_.emplace(rec->id, rec);
  }
  const auto pushed = queue_.try_push(rec, pri);
  if (pushed != JobQueue<std::shared_ptr<JobRecord>>::Push::Ok) {
    {
      std::lock_guard<std::mutex> lk(jobs_mu_);
      jobs_.erase(rec->id);
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    res.reject_code =
        pushed == JobQueue<std::shared_ptr<JobRecord>>::Push::Full
            ? kRejectedOverload
            : kDraining;
    return res;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  res.accepted = true;
  res.id = rec->id;
  return res;
}

std::shared_ptr<JobRecord> MeshService::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(jobs_mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool MeshService::cancel(std::uint64_t id) {
  const auto rec = find(id);
  if (rec == nullptr || rec->terminal()) return false;
  // The token first: if the job is between the queue pop and the Running
  // transition, the executor's pre-start check still sees it.
  rec->cancel.store(true, std::memory_order_release);
  const bool dequeued = queue_.remove_if(
      [&](const std::shared_ptr<JobRecord>& r) { return r->id == id; });
  if (dequeued) {
    rec->queue_wait_sec = now_sec() - rec->submit_sec;
    rec->error = "cancelled before start";
    finish(rec, JobState::Cancelled);
  }
  return true;
}

std::shared_ptr<JobRecord> MeshService::wait(std::uint64_t id) {
  const auto rec = find(id);
  if (rec == nullptr) return nullptr;
  std::unique_lock<std::mutex> lk(jobs_mu_);
  jobs_cv_.wait(lk, [&] { return rec->terminal(); });
  return rec;
}

void MeshService::finish(const std::shared_ptr<JobRecord>& rec,
                         JobState final_state) {
  switch (final_state) {
    case JobState::Done:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::Failed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::Cancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    default: break;
  }
  {
    // The terminal store happens under jobs_mu_ so wait()'s predicate
    // check and this notification cannot interleave into a missed wakeup.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    rec->state.store(static_cast<int>(final_state),
                     std::memory_order_release);
  }
  jobs_cv_.notify_all();
}

void MeshService::executor_loop(int /*slot*/) {
  std::shared_ptr<JobRecord> rec;
  while (queue_.pop(&rec)) {
    if (rec->on_start) rec->on_start();
    if (rec->cancel.load(std::memory_order_acquire)) {
      // Cancelled between submission and here (or the remove_if raced the
      // pop and lost — the token still wins).
      if (!rec->terminal()) {
        rec->queue_wait_sec = now_sec() - rec->submit_sec;
        rec->error = "cancelled before start";
        finish(rec, JobState::Cancelled);
      }
      rec.reset();
      continue;
    }
    run_job(rec);
    rec.reset();  // release the record (and any pinned entries) promptly
  }
}

void MeshService::run_job(const std::shared_ptr<JobRecord>& rec) {
  rec->queue_wait_sec = now_sec() - rec->submit_sec;
  queue_wait_hist_.record_sec(rec->queue_wait_sec);
  rec->state.store(static_cast<int>(JobState::Running),
                   std::memory_order_release);
  running_.fetch_add(1, std::memory_order_relaxed);

  JobSpec spec = rec->spec;
  if (spec.mesh.threads <= 0) spec.mesh.threads = cfg_.default_threads;

  MeshJob job(std::move(spec));
  job.set_cancel(&rec->cancel);
  job.set_edt_cache(&edt_cache_);
  job.set_queue_wait(rec->queue_wait_sec);

  const double t0 = now_sec();
  const JobArtifacts& art = job.run();
  rec->mesh_sec = now_sec() - t0;
  mesh_hist_.record_sec(rec->mesh_sec);
  rec->edt_cache_hit = art.edt_cache_hit;
  rec->error = art.error;

  telemetry::RunManifest man = job.build_manifest("pi2m_serve");
  man.set_config("job_id", static_cast<std::int64_t>(rec->id));
  man.set_config("priority", priority_name(rec->priority));
  rec->manifest_json = man.to_json();
  if (!cfg_.manifest_dir.empty()) {
    // Advisory artifact; the manifest also travels in the result response.
    [[maybe_unused]] const bool wrote = man.write(
        cfg_.manifest_dir + "/job_" + std::to_string(rec->id) + ".json");
  }

  running_.fetch_sub(1, std::memory_order_relaxed);
  finish(rec, art.ok            ? JobState::Done
              : art.cancelled   ? JobState::Cancelled
                                : JobState::Failed);
}

void MeshService::drain() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  draining_.store(true, std::memory_order_release);
  queue_.close();
  if (!joined_.exchange(true)) {
    for (auto& t : executors_) t.join();
  }
}

void MeshService::shutdown_now() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  draining_.store(true, std::memory_order_release);
  for (const auto& rec : queue_.close_and_clear()) {
    rec->cancel.store(true, std::memory_order_release);
    if (!rec->terminal()) {
      rec->queue_wait_sec = now_sec() - rec->submit_sec;
      rec->error = "cancelled at shutdown";
      finish(rec, JobState::Cancelled);
    }
  }
  {
    // Trip every in-flight job's token; the workers notice at the next
    // refinement-loop boundary.
    std::lock_guard<std::mutex> jl(jobs_mu_);
    for (const auto& [id, rec] : jobs_) {
      if (!rec->terminal()) rec->cancel.store(true, std::memory_order_release);
    }
  }
  if (!joined_.exchange(true)) {
    for (auto& t : executors_) t.join();
  }
}

telemetry::MetricsRegistry MeshService::metrics_snapshot() const {
  telemetry::MetricsRegistry reg;
  reg.set("serve.jobs.accepted", accepted_.load(std::memory_order_relaxed));
  reg.set("serve.jobs.rejected", rejected_.load(std::memory_order_relaxed));
  reg.set("serve.jobs.completed",
          completed_.load(std::memory_order_relaxed));
  reg.set("serve.jobs.failed", failed_.load(std::memory_order_relaxed));
  reg.set("serve.jobs.cancelled",
          cancelled_.load(std::memory_order_relaxed));
  reg.set("serve.jobs.running", running_.load(std::memory_order_relaxed));
  reg.set("serve.queue.depth", queue_.depth());
  reg.set("serve.queue.capacity", queue_.capacity());
  queue_wait_hist_.publish(reg, "serve.latency.queue_wait");
  mesh_hist_.publish(reg, "serve.latency.mesh");

  const EdtCache::Stats cs = edt_cache_.stats();
  reg.set("serve.edt_cache.hits", cs.hits);
  reg.set("serve.edt_cache.misses", cs.misses);
  reg.set("serve.edt_cache.coalesced", cs.coalesced);
  reg.set("serve.edt_cache.evictions", cs.evictions);
  reg.set("serve.edt_cache.bytes", cs.bytes);
  reg.set("serve.edt_cache.entries", cs.entries);
  reg.set("serve.edt_cache.budget_bytes", cs.budget_bytes);

  const ArenaPool::Stats as = ArenaPool::instance().stats();
  reg.set("serve.arena.acquires", as.acquires);
  reg.set("serve.arena.reuses", as.reuses);
  reg.set("serve.arena.releases", as.releases);
  reg.set("serve.arena.frees", as.frees);
  reg.set("serve.arena.cached_bytes", as.cached_bytes);
  reg.set("serve.arena.budget_bytes", as.budget_bytes);
  return reg;
}

}  // namespace pi2m::serve
