#ifndef CSR_ENGINE_EXECUTOR_H_
#define CSR_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/admission.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "index/codec.h"
#include "util/result.h"
#include "util/timer.h"

namespace csr {

/// Staged pipeline execution (DESIGN.md §16). Off by default: the legacy
/// one-query-per-worker pool keeps its exact semantics. When enabled,
/// each query flows parse/plan -> intersect -> score/top-k through
/// bounded inter-stage queues, and the intersect stage batches in-flight
/// queries that share terms so each posting block is decoded once per
/// batch (per-batch DecodedBlockArena).
struct PipelineConfig {
  bool enabled = false;

  /// Per-stage worker pools. intersect_workers == 0 picks the executor's
  /// resolved num_threads (the intersect stage does the posting-scan
  /// work, so it gets the pool the legacy path would have had).
  uint32_t parse_workers = 1;
  uint32_t intersect_workers = 0;
  uint32_t score_workers = 1;

  /// Bound of each inter-stage queue. A full downstream queue blocks the
  /// upstream stage (backpressure), which in turn keeps admission queues
  /// full and lets per-tenant rejection engage.
  size_t stage_queue_capacity = 64;

  /// Most queries one intersect batch may group (>= 1). Queries join a
  /// batch only when they share at least one term with the batch head,
  /// one at a time as the worker finishes the previous member, so queued
  /// tasks stay free for any idle intersect worker.
  size_t max_batch = 8;

  /// Byte bound of each intersect worker's decoded-block arena: its
  /// slots, reused decode buffers and table together. Past the bound new
  /// blocks decode privately (correct, just uncached), so batch memory
  /// stays bounded however hot the shared terms are.
  size_t arena_bytes = DecodedBlockArena::kDefaultMaxBytes;
};

struct ExecutorConfig {
  /// Worker threads. 0 picks std::thread::hardware_concurrency() (min 1).
  uint32_t num_threads = 0;

  /// Queue bound for the default tenant when `admission.tenants` is empty
  /// (the single-tenant compatibility path). With explicit tenants, each
  /// tenant's own queue_capacity governs instead.
  size_t queue_capacity = 256;

  /// Per-tenant admission control + adaptive concurrency (DESIGN.md §13).
  /// Default (no tenants, slo_ms 0) reproduces single-queue FIFO serving
  /// at full worker concurrency.
  AdmissionConfig admission;

  /// Staged pipeline + cross-query posting-scan batching (DESIGN.md §16).
  PipelineConfig pipeline;
};

/// Point-in-time executor telemetry. Counters are cumulative since
/// construction; submitted == completed + queue_depth +
/// currently-executing (rejected tasks never enter the queue).
///
/// Synchronization contract (torn-read audit, PR 5): every field —
/// including the multi-word doubles and max-trackers — is mutated only
/// under QueryExecutor::mu_, and every read path goes through the locked
/// copy-out in QueryExecutor::metrics() (the registry sample callback
/// included). Reading a field of a live executor's struct without mu_ is a
/// data race: `queue_wait_ms_total += x` and `max_queue_depth = max(...)`
/// are read-modify-writes, so an unlocked reader can observe a torn or
/// mid-update value. The admission controller follows the same contract
/// (every call under mu_, copy-out via admission()).
struct ExecutorMetrics {
  uint64_t submitted = 0;   // accepted into a tenant queue
  uint64_t rejected = 0;    // refused with kResourceExhausted (queue full)
  uint64_t completed = 0;   // promise fulfilled (ok or error)
  size_t queue_depth = 0;   // tasks waiting right now, all tenants
  size_t max_queue_depth = 0;
  double queue_wait_ms_total = 0;  // summed over completed tasks
  double queue_wait_ms_max = 0;
  double exec_ms_total = 0;  // summed Search wall time, completed tasks
};

/// Point-in-time telemetry for one pipeline stage. `queue_depth` is the
/// stage's INPUT queue (for parse that is the admission queues);
/// `busy_ms_total` sums the stage's time actually executing work, so
/// occupancy = busy_ms_total / (uptime_ms * workers).
struct PipelineStageMetrics {
  uint32_t workers = 0;
  uint64_t processed = 0;
  size_t queue_depth = 0;
  size_t max_queue_depth = 0;
  double queue_wait_ms_total = 0;
  double busy_ms_total = 0;
};

/// Locked copy-out of the staged pipeline's state; all-zero (enabled ==
/// false) when the executor runs the legacy one-query-per-worker pool.
struct PipelineMetrics {
  bool enabled = false;
  double uptime_ms = 0;
  PipelineStageMetrics parse;
  PipelineStageMetrics intersect;
  PipelineStageMetrics score;

  uint64_t batches = 0;          // intersect batches formed
  uint64_t batched_queries = 0;  // queries that shared a batch (size >= 2)
  size_t max_batch = 0;          // largest batch observed
  /// batch_size_counts[n] = number of batches of exactly n queries
  /// (index 0 unused).
  std::vector<uint64_t> batch_size_counts;
  uint64_t arena_hits = 0;    // block decodes avoided via batch arenas
  uint64_t arena_misses = 0;  // block decodes the arenas performed
};

/// A fixed-size thread pool serving ContextSearchEngine::Search under the
/// engine's threading contract (Search is safe concurrently; mutations
/// need exclusive access — do not Append/Install/Materialize while an
/// executor is attached and live).
///
/// Two entry points:
///  - SubmitSearch: non-blocking; returns a future. When the caller's
///    tenant queue is at capacity the future is already resolved with
///    kResourceExhausted carrying a retry_after_ms backoff hint, so
///    callers get immediate backpressure, never an unbounded buffer.
///  - SearchBatch: convenience for offline/bench workloads; blocks for
///    queue space, preserves input order in the returned vector, and only
///    returns when every query has finished.
///
/// Scheduling: queued queries sit in per-tenant bounded queues and are
/// dispatched in weighted-fair order (AdmissionController); concurrent
/// dispatch is capped by the AIMD limiter when an SLO is configured.
///
/// Deadlines: each task records its enqueue time, and the measured queue
/// wait is passed to Search as `elapsed_ms`, so EngineConfig::deadline_ms
/// bounds end-to-end latency (queue wait + execution). A query whose
/// deadline expires while still queued is shed with kDeadlineExceeded —
/// the engine's shed path is the single authority for that decision; the
/// executor only counts the outcome.
///
/// Destruction/Shutdown drains: queued tasks still execute (the drain
/// ignores the concurrency limit), then workers join. Submissions after
/// Shutdown resolve to kUnavailable — the component is down, not
/// overloaded, so callers must not interpret it as backpressure.
class QueryExecutor {
 public:
  /// `engine` must outlive the executor.
  explicit QueryExecutor(const ContextSearchEngine* engine,
                         ExecutorConfig config = {});
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Enqueues one query for `tenant` (empty = default tenant). Never
  /// blocks: a full tenant queue (or a shut-down executor) yields an
  /// already-resolved future carrying the typed error.
  std::future<Result<SearchResult>> SubmitSearch(ContextQuery query,
                                                 EvaluationMode mode,
                                                 std::string_view tenant = {});

  /// Runs the whole batch through the pool and returns results in input
  /// order. Blocks for queue space (no kResourceExhausted rejections) and
  /// for completion.
  std::vector<Result<SearchResult>> SearchBatch(
      std::span<const ContextQuery> queries, EvaluationMode mode,
      std::string_view tenant = {});

  /// Stops accepting work, drains the queues, joins workers. Idempotent;
  /// also run by the destructor.
  void Shutdown();

  ExecutorMetrics metrics() const;
  /// Locked copy-out of the admission state (per-tenant depths/counters,
  /// concurrency limit, shed counts). Basis of the admission.* metrics
  /// and the shell's `.qos`.
  AdmissionSnapshot admission() const;
  /// Locked copy-out of the pipeline state (per-stage depth/occupancy,
  /// batch-size histogram). Basis of pipeline.* metrics and the shell's
  /// `.pipeline`; `enabled == false` when running the legacy pool.
  PipelineMetrics pipeline() const;
  size_t queue_depth() const;
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size() + parse_workers_.size() +
                                 intersect_workers_.size() +
                                 score_workers_.size());
  }
  const ContextSearchEngine& engine() const { return *engine_; }

 private:
  struct Task {
    ContextQuery query;
    EvaluationMode mode;
    std::promise<Result<SearchResult>> promise;
    WallTimer queued;  // started at enqueue; read at dequeue = queue wait
  };

  /// One query in flight through the staged pipeline. Owned by exactly
  /// one stage at a time; the bounded-queue handoff publishes it to the
  /// next stage (mutex acquire/release = happens-before), so no field
  /// needs its own synchronization.
  struct PipelineTask {
    std::unique_ptr<PreparedSearch> ps;
    std::promise<Result<SearchResult>> promise;
    size_t tenant = 0;
    double admission_wait_ms = 0;  // pre-parse wait; shed classification
    WallTimer enqueued;            // started at Enqueue; read = e2e time
    WallTimer staged;              // restarted at each queue push
    std::vector<TermId> terms;     // sorted unique keywords ∪ context
  };

  /// Bounded MPMC queue of PipelineTasks. Push blocks while full (that is
  /// the backpressure), Pop blocks while empty; Close wakes everyone and
  /// makes Pop return false once drained. PopSharing takes, without
  /// waiting, the oldest queued task sharing a term with a batch head —
  /// how the intersect stage grows its shared-decode batches.
  class StageQueue {
   public:
    explicit StageQueue(size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    bool Push(PipelineTask task);
    bool Pop(PipelineTask& out);
    bool PopSharing(const std::vector<TermId>& terms, PipelineTask& out);
    bool HasSharing(const std::vector<TermId>& terms) const;
    void Close();
    size_t depth() const;
    size_t max_depth() const;

   private:
    const size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<PipelineTask> q_;
    size_t max_depth_ = 0;
    bool closed_ = false;
  };

  static uint32_t ResolveThreads(const ExecutorConfig& config);

  /// Shared enqueue path; `block` selects SearchBatch (wait for space) vs
  /// SubmitSearch (reject) semantics.
  std::future<Result<SearchResult>> Enqueue(ContextQuery query,
                                            EvaluationMode mode,
                                            std::string_view tenant,
                                            bool block);
  void WorkerLoop();

  // Pipeline stage loops (pipeline.enabled only). Parse shares the
  // admission dispatch head with the legacy loop; intersect and score
  // consume the bounded stage queues.
  void ParseLoop();
  void IntersectLoop();
  void ScoreLoop();
  /// Completion bookkeeping shared by every stage that resolves a query
  /// (identical to the legacy loop's: completed++ and OnComplete BEFORE
  /// the promise resolves, histograms outside mu_).
  void FinalizeTask(PipelineTask& task, Result<SearchResult> result);

  const ContextSearchEngine* engine_;
  ExecutorConfig config_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> parse_workers_;
  std::vector<std::thread> intersect_workers_;
  std::vector<std::thread> score_workers_;
  std::unique_ptr<StageQueue> intersect_q_;
  std::unique_ptr<StageQueue> score_q_;
  WallTimer uptime_;

  // Observability: per-event latency histograms (cached instrument
  // pointers, relaxed-atomic updates outside mu_) plus a sample callback
  // that exports the locked ExecutorMetrics/AdmissionSnapshot copy-outs
  // under executor.* / admission.* names. The callback handle is released
  // in Shutdown — the registry guarantees the callback is not running once
  // removal returns, so a shut-down executor can be destroyed safely.
  Histogram* queue_wait_hist_ = nullptr;
  Histogram* exec_hist_ = nullptr;
  Histogram* e2e_hist_ = nullptr;
  uint64_t metrics_callback_ = 0;

  mutable std::mutex mu_;
  std::mutex join_mu_;                 // serializes Shutdown callers
  std::condition_variable not_empty_;  // signalled on push, completion,
                                       // and shutdown (dispatch predicate)
  std::condition_variable not_full_;   // signalled on dispatch
  std::vector<std::deque<Task>> tenant_queues_;  // parallel to admission_
  AdmissionController admission_;      // guarded by mu_
  bool shutdown_ = false;
  ExecutorMetrics metrics_;  // guarded by mu_; queue_depth derived

  /// Pipeline counters guarded by mu_ (stage queue depths live in the
  /// StageQueues; pipeline() merges both under a consistent read).
  struct PipelineCounters {
    uint64_t parse_processed = 0;
    uint64_t intersect_processed = 0;
    uint64_t score_processed = 0;
    double parse_busy_ms = 0;
    double intersect_busy_ms = 0;
    double score_busy_ms = 0;
    double intersect_wait_ms = 0;
    double score_wait_ms = 0;
    uint64_t batches = 0;
    uint64_t batched_queries = 0;
    size_t max_batch = 0;
    std::vector<uint64_t> batch_size_counts;
    uint64_t arena_hits = 0;
    uint64_t arena_misses = 0;
  };
  PipelineCounters pipeline_counters_;  // guarded by mu_
};

}  // namespace csr

#endif  // CSR_ENGINE_EXECUTOR_H_
