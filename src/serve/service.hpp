// MeshService: the long-lived meshing engine behind the daemon.
//
// Owns the admission-controlled priority queue, a fixed pool of executor
// threads (each running one MeshJob at a time with `threads` refinement
// workers), the shared EDT/oracle cache, and the serve-level metrics.
// Transport-agnostic: the socket server (serve/server.hpp) and the tests
// drive it directly through submit/status/cancel/result.
//
// Job lifecycle:  Queued -> Running -> Done | Failed | Cancelled
//                    \________________________________/
//                     cancel() at any point before a terminal state
//
// Cross-job isolation: each job runs a fresh MeshJob (fresh Refiner, fresh
// DelaunayMesh). Shared state is immutable by construction — cached EDT
// entries are const and content-addressed, warm arena blocks are raw
// storage placement-new'ed per job — so concurrent jobs cannot observe
// each other.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "imaging/edt_cache.hpp"
#include "pipeline/mesh_job.hpp"
#include "serve/job_queue.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/metrics_registry.hpp"

namespace pi2m::serve {

enum class JobState : int { Queued, Running, Done, Failed, Cancelled };
const char* job_state_name(JobState s);

struct ServiceConfig {
  int executors = 4;            ///< concurrent in-flight jobs
  std::size_t queue_capacity = 64;  ///< queued (not yet running) jobs
  int default_threads = 1;      ///< refinement workers per job when the
                                ///< request does not say
  std::size_t edt_cache_bytes = std::size_t{256} << 20;
  /// Inert: every mesh draws its arenas from the process-wide ArenaPool.
  /// Kept only because the benchmark sources (perfbench/) still set it;
  /// drop it with their next change.
  bool warm_arena = true;
  std::string manifest_dir;     ///< when set, write job_<id>.json per job
};

/// One submitted job. State is an atomic so status polls never block a
/// running executor; result fields are written by the executor before the
/// terminal state is published (release) and read by protocol handlers
/// after observing it (acquire).
struct JobRecord {
  std::uint64_t id = 0;
  Priority priority = Priority::Normal;
  JobSpec spec;
  std::atomic<int> state{static_cast<int>(JobState::Queued)};
  std::atomic<bool> cancel{false};

  double submit_sec = 0.0;  ///< monotonic clock at admission
  // Written by the executor; published by the terminal state store.
  double queue_wait_sec = 0.0;
  double mesh_sec = 0.0;
  bool edt_cache_hit = false;
  std::string error;          ///< terminal Failed detail
  std::string manifest_json;  ///< full run manifest (Done/Failed/Cancelled)

  /// Test hook: runs on the executor right before the job starts (after
  /// the queue pop, before the Running transition). Lets tests hold the
  /// executors busy deterministically.
  std::function<void()> on_start;

  [[nodiscard]] JobState current_state() const {
    return static_cast<JobState>(state.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool terminal() const {
    const JobState s = current_state();
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
  }
};

class MeshService {
 public:
  struct SubmitResult {
    bool accepted = false;
    std::uint64_t id = 0;
    const char* reject_code = nullptr;  ///< kRejectedOverload / kDraining
  };

  explicit MeshService(ServiceConfig cfg);
  /// Joins the executors; equivalent to shutdown_now() if still running.
  ~MeshService();

  MeshService(const MeshService&) = delete;
  MeshService& operator=(const MeshService&) = delete;

  /// Admission control: bounded-queue push or an explicit rejection.
  SubmitResult submit(JobSpec spec, Priority pri,
                      std::function<void()> on_start = nullptr);

  /// Looks up a job (any state); nullptr when the id was never issued.
  [[nodiscard]] std::shared_ptr<JobRecord> find(std::uint64_t id) const;

  /// Requests cancellation: a queued job is removed immediately; a running
  /// job's cancel token trips at the next refinement-loop boundary.
  /// Returns false when the id is unknown or the job already finished.
  bool cancel(std::uint64_t id);

  /// Blocks until the job reaches a terminal state (test/client helper).
  std::shared_ptr<JobRecord> wait(std::uint64_t id);

  /// Stops admissions, runs the backlog dry, joins the executors.
  void drain();
  /// Stops admissions, cancels the backlog and the running jobs, joins.
  void shutdown_now();
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// serve.* metrics + queue gauge + latency histograms + EDT cache and
  /// arena pool counters, as one registry snapshot.
  [[nodiscard]] telemetry::MetricsRegistry metrics_snapshot() const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  void executor_loop(int slot);
  void run_job(const std::shared_ptr<JobRecord>& rec);
  void finish(const std::shared_ptr<JobRecord>& rec, JobState final_state);

  ServiceConfig cfg_;
  EdtCache edt_cache_;
  JobQueue<std::shared_ptr<JobRecord>> queue_;

  mutable std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;  ///< signaled on any terminal transition
  std::unordered_map<std::uint64_t, std::shared_ptr<JobRecord>> jobs_;
  std::uint64_t next_id_ = 1;

  std::vector<std::thread> executors_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};
  std::mutex lifecycle_mu_;  ///< serializes drain()/shutdown_now()

  // serve.jobs.* counters
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> running_{0};
  telemetry::LatencyHistogram queue_wait_hist_;
  telemetry::LatencyHistogram mesh_hist_;
};

}  // namespace pi2m::serve
