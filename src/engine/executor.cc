#include "engine/executor.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace csr {

uint32_t QueryExecutor::ResolveThreads(const ExecutorConfig& config) {
  uint32_t threads = config.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return threads;
}

namespace {

/// No explicit tenants → one default tenant bounded by the legacy
/// queue_capacity knob, which reproduces the old single-queue semantics.
AdmissionConfig ResolveAdmission(const ExecutorConfig& config) {
  AdmissionConfig a = config.admission;
  if (a.tenants.empty()) {
    size_t cap = std::max<size_t>(1, config.queue_capacity);
    a.tenants.push_back(TenantConfig{"default", 1.0, cap});
  }
  return a;
}

uint32_t ResolveParseWorkers(const PipelineConfig& p) {
  return std::max(1u, p.parse_workers);
}

uint32_t ResolveIntersectWorkers(const ExecutorConfig& config) {
  uint32_t n = config.pipeline.intersect_workers;
  if (n == 0) n = config.num_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

uint32_t ResolveScoreWorkers(const PipelineConfig& p) {
  return std::max(1u, p.score_workers);
}

/// The admission controller's inflight cap covers a query's WHOLE
/// pipeline residence (BeginDispatch at parse, OnComplete at finalize),
/// so its default limit must cover the stage workers plus the queued
/// tasks between them — otherwise the AIMD ceiling would strangle
/// pipeline occupancy to the parse worker count.
uint32_t PipelineConcurrency(const ExecutorConfig& config) {
  return ResolveParseWorkers(config.pipeline) +
         ResolveIntersectWorkers(config) +
         ResolveScoreWorkers(config.pipeline) +
         static_cast<uint32_t>(2 * std::max<size_t>(
                                       1, config.pipeline.stage_queue_capacity));
}

/// True when the two sorted term vectors share at least one element.
bool SharesTerm(const std::vector<TermId>& a, const std::vector<TermId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

QueryExecutor::QueryExecutor(const ContextSearchEngine* engine,
                             ExecutorConfig config)
    : engine_(engine),
      config_(std::move(config)),
      admission_(ResolveAdmission(config_),
                 config_.pipeline.enabled ? PipelineConcurrency(config_)
                                          : ResolveThreads(config_)) {
  uint32_t threads = ResolveThreads(config_);
  tenant_queues_.resize(admission_.num_tenants());

  // Register into the engine's metrics registry before any worker starts:
  // the histograms are cached raw pointers (lock-free updates in
  // WorkerLoop), and the sample callback exports the legacy
  // ExecutorMetrics struct and the admission state — through the locked
  // copy-outs, never a bare field read — under stable executor.* and
  // admission.* names.
  MetricsRegistry& registry = engine_->metrics_registry();
  queue_wait_hist_ = &registry.GetHistogram("executor.queue_wait_ms");
  exec_hist_ = &registry.GetHistogram("executor.exec_ms");
  e2e_hist_ = &registry.GetHistogram("executor.e2e_ms");
  metrics_callback_ = registry.AddSampleCallback([this](MetricsSnapshot& s) {
    ExecutorMetrics m = metrics();  // locked copy-out (takes mu_)
    s.counters["executor.submitted"] = m.submitted;
    s.counters["executor.rejected"] = m.rejected;
    s.counters["executor.completed"] = m.completed;
    s.gauges["executor.queue_depth"] = static_cast<double>(m.queue_depth);
    s.gauges["executor.max_queue_depth"] =
        static_cast<double>(m.max_queue_depth);
    s.gauges["executor.queue_wait_ms_total"] = m.queue_wait_ms_total;
    s.gauges["executor.queue_wait_ms_max"] = m.queue_wait_ms_max;
    s.gauges["executor.exec_ms_total"] = m.exec_ms_total;
    s.gauges["executor.num_threads"] = static_cast<double>(num_threads());

    AdmissionSnapshot a = admission();  // locked copy-out (takes mu_)
    s.counters["admission.admitted"] = a.admitted;
    s.counters["admission.rejected"] = a.rejected;
    s.counters["admission.completed"] = a.completed;
    s.counters["admission.shed"] = a.shed;
    s.counters["admission.limit_increases"] = a.limit_increases;
    s.counters["admission.limit_decreases"] = a.limit_decreases;
    s.gauges["admission.limit"] = static_cast<double>(a.limit);
    s.gauges["admission.inflight"] = static_cast<double>(a.inflight);
    s.gauges["admission.window_p99_ms"] = a.window_p99_ms;
    s.gauges["admission.slo_ms"] = a.slo_ms;
    for (const TenantSnapshot& t : a.tenants) {
      std::string prefix = "admission.tenant." + t.name;
      s.gauges[prefix + ".depth"] = static_cast<double>(t.depth);
      s.gauges[prefix + ".weight"] = t.weight;
      s.counters[prefix + ".admitted"] = t.admitted;
      s.counters[prefix + ".rejected"] = t.rejected;
      s.counters[prefix + ".completed"] = t.completed;
      s.counters[prefix + ".shed"] = t.shed;
    }

    if (config_.pipeline.enabled) {
      PipelineMetrics p = pipeline();  // locked copy-out (takes mu_)
      auto stage = [&s](const char* name, const PipelineStageMetrics& st) {
        std::string prefix = std::string("pipeline.") + name;
        s.counters[prefix + ".processed"] = st.processed;
        s.gauges[prefix + ".queue_depth"] = static_cast<double>(st.queue_depth);
        s.gauges[prefix + ".max_queue_depth"] =
            static_cast<double>(st.max_queue_depth);
        s.gauges[prefix + ".queue_wait_ms_total"] = st.queue_wait_ms_total;
        s.gauges[prefix + ".busy_ms_total"] = st.busy_ms_total;
        s.gauges[prefix + ".workers"] = static_cast<double>(st.workers);
      };
      stage("parse", p.parse);
      stage("intersect", p.intersect);
      stage("score", p.score);
      s.counters["pipeline.batches"] = p.batches;
      s.counters["pipeline.batched_queries"] = p.batched_queries;
      s.gauges["pipeline.max_batch"] = static_cast<double>(p.max_batch);
      s.counters["pipeline.arena_hits"] = p.arena_hits;
      s.counters["pipeline.arena_misses"] = p.arena_misses;
    }
  });

  if (config_.pipeline.enabled) {
    // Staged pipeline: bounded queues first (the loops touch them), then
    // the per-stage pools. The legacy pool stays empty.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pipeline_counters_.batch_size_counts.assign(
          std::max<size_t>(1, config_.pipeline.max_batch) + 1, 0);
    }
    intersect_q_ = std::make_unique<StageQueue>(
        config_.pipeline.stage_queue_capacity);
    score_q_ =
        std::make_unique<StageQueue>(config_.pipeline.stage_queue_capacity);
    uint32_t parse = ResolveParseWorkers(config_.pipeline);
    uint32_t intersect = ResolveIntersectWorkers(config_);
    uint32_t score = ResolveScoreWorkers(config_.pipeline);
    parse_workers_.reserve(parse);
    for (uint32_t i = 0; i < parse; ++i) {
      parse_workers_.emplace_back([this] { ParseLoop(); });
    }
    intersect_workers_.reserve(intersect);
    for (uint32_t i = 0; i < intersect; ++i) {
      intersect_workers_.emplace_back([this] { IntersectLoop(); });
    }
    score_workers_.reserve(score);
    for (uint32_t i = 0; i < score; ++i) {
      score_workers_.emplace_back([this] { ScoreLoop(); });
    }
  } else {
    workers_.reserve(threads);
    for (uint32_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

QueryExecutor::~QueryExecutor() { Shutdown(); }

void QueryExecutor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  // join_mu_ serializes concurrent Shutdown callers (join is not).
  std::lock_guard<std::mutex> jlock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Pipeline drain is strictly upstream-first: parse workers exit once the
  // admission queues are empty (having pushed everything downstream), THEN
  // the intersect queue closes — Pop keeps returning work until the queue
  // is both closed and empty, so nothing queued is dropped — and so on
  // through score. Closing a queue before its producers exit would race
  // Push against Close.
  for (std::thread& w : parse_workers_) {
    if (w.joinable()) w.join();
  }
  if (intersect_q_ != nullptr) intersect_q_->Close();
  for (std::thread& w : intersect_workers_) {
    if (w.joinable()) w.join();
  }
  if (score_q_ != nullptr) score_q_->Close();
  for (std::thread& w : score_workers_) {
    if (w.joinable()) w.join();
  }
  // Unhook the registry export once workers are gone. Removal blocks on
  // any in-flight Snapshot, so after this line no callback can touch this
  // executor — destruction is safe even if the engine's registry outlives
  // us. (Lock order here is join_mu_ -> registry mutex; the callback takes
  // registry mutex -> mu_, never join_mu_, so there is no cycle.)
  if (metrics_callback_ != 0) {
    engine_->metrics_registry().RemoveSampleCallback(metrics_callback_);
    metrics_callback_ = 0;
  }
}

std::future<Result<SearchResult>> QueryExecutor::Enqueue(
    ContextQuery query, EvaluationMode mode, std::string_view tenant,
    bool block) {
  std::unique_lock<std::mutex> lock(mu_);
  size_t t = admission_.TenantIndex(tenant);
  if (block) {
    not_full_.wait(lock,
                   [this, t] { return shutdown_ || admission_.CanAdmit(t); });
  }
  if (shutdown_) {
    lock.unlock();
    std::promise<Result<SearchResult>> p;
    // kUnavailable, not kResourceExhausted: the executor is down, not
    // overloaded — backing off and resubmitting here cannot succeed.
    p.set_value(Status::Unavailable("executor is shut down"));
    return p.get_future();
  }
  Status admitted = admission_.TryAdmit(t);
  if (!admitted.ok()) {
    metrics_.rejected++;
    lock.unlock();
    std::promise<Result<SearchResult>> p;
    p.set_value(std::move(admitted));
    return p.get_future();
  }
  tenant_queues_[t].push_back(Task{std::move(query), mode, {}, {}});
  std::future<Result<SearchResult>> f =
      tenant_queues_[t].back().promise.get_future();
  metrics_.submitted++;
  metrics_.max_queue_depth =
      std::max(metrics_.max_queue_depth, admission_.total_depth());
  lock.unlock();
  not_empty_.notify_one();
  return f;
}

std::future<Result<SearchResult>> QueryExecutor::SubmitSearch(
    ContextQuery query, EvaluationMode mode, std::string_view tenant) {
  return Enqueue(std::move(query), mode, tenant, /*block=*/false);
}

std::vector<Result<SearchResult>> QueryExecutor::SearchBatch(
    std::span<const ContextQuery> queries, EvaluationMode mode,
    std::string_view tenant) {
  std::vector<std::future<Result<SearchResult>>> futures;
  futures.reserve(queries.size());
  for (const ContextQuery& q : queries) {
    futures.push_back(Enqueue(q, mode, tenant, /*block=*/true));
  }
  std::vector<Result<SearchResult>> results;
  results.reserve(queries.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void QueryExecutor::WorkerLoop() {
  for (;;) {
    Task task;
    double wait_ms;
    size_t tenant;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // The dispatch predicate folds in the concurrency limit; shutdown
      // drains regardless of the limit (latency no longer matters, the
      // queues must empty so promises resolve).
      not_empty_.wait(
          lock, [this] { return shutdown_ || admission_.CanDispatch(); });
      if (!admission_.HasRunnable()) return;  // shutdown, queues drained
      tenant = admission_.BeginDispatch();
      task = std::move(tenant_queues_[tenant].front());
      tenant_queues_[tenant].pop_front();
      wait_ms = task.queued.ElapsedMillis();
      metrics_.queue_wait_ms_total += wait_ms;
      metrics_.queue_wait_ms_max =
          std::max(metrics_.queue_wait_ms_max, wait_ms);
    }
    // notify_all: blocked enqueuers wait on *their* tenant's capacity, and
    // this dispatch only made room in one tenant — wake them all and let
    // the predicates sort it out.
    not_full_.notify_all();

    WallTimer exec_timer;
    Result<SearchResult> result =
        engine_->Search(task.query, task.mode, wait_ms);
    double exec_ms = exec_timer.ElapsedMillis();
    double e2e_ms = wait_ms + exec_ms;
    // The engine is the single authority on shedding (its deadline check
    // sees queue wait via elapsed_ms); the executor just classifies the
    // outcome: a kDeadlineExceeded whose deadline was already gone at
    // dispatch is a queue shed, not an execution timeout.
    double deadline_ms = engine_->config().deadline_ms;
    bool shed = deadline_ms > 0.0 && !result.ok() &&
                result.status().code() == StatusCode::kDeadlineExceeded &&
                wait_ms >= deadline_ms;
    {
      // Count completion BEFORE fulfilling the promise: a caller that has
      // observed its future ready must see `completed` include that task.
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.completed++;
      metrics_.exec_ms_total += exec_ms;
      admission_.OnComplete(tenant, e2e_ms, shed);
    }
    // The freed concurrency slot (or an AIMD limit raise) may have made a
    // queued task dispatchable.
    not_empty_.notify_one();
    // Histogram updates are relaxed atomics on cached pointers — outside
    // mu_ by design (see the registry lock-ordering contract).
    if (engine_->metrics_enabled()) {
      queue_wait_hist_->Observe(wait_ms);
      exec_hist_->Observe(exec_ms);
      e2e_hist_->Observe(e2e_ms);
    }
    task.promise.set_value(std::move(result));
  }
}

bool QueryExecutor::StageQueue::Push(PipelineTask task) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] { return closed_ || q_.size() < capacity_; });
  if (closed_) return false;
  q_.push_back(std::move(task));
  max_depth_ = std::max(max_depth_, q_.size());
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool QueryExecutor::StageQueue::Pop(PipelineTask& out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !q_.empty(); });
  if (q_.empty()) return false;  // closed and drained
  out = std::move(q_.front());
  q_.pop_front();
  lock.unlock();
  not_full_.notify_all();
  return true;
}

bool QueryExecutor::StageQueue::PopSharing(const std::vector<TermId>& terms,
                                           PipelineTask& out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = std::find_if(q_.begin(), q_.end(), [&](const PipelineTask& t) {
    return SharesTerm(terms, t.terms);
  });
  if (it == q_.end()) return false;
  out = std::move(*it);
  q_.erase(it);
  lock.unlock();
  not_full_.notify_all();
  return true;
}

bool QueryExecutor::StageQueue::HasSharing(
    const std::vector<TermId>& terms) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(q_.begin(), q_.end(), [&](const PipelineTask& t) {
    return SharesTerm(terms, t.terms);
  });
}

void QueryExecutor::StageQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t QueryExecutor::StageQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

size_t QueryExecutor::StageQueue::max_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_depth_;
}

void QueryExecutor::FinalizeTask(PipelineTask& task,
                                 Result<SearchResult> result) {
  double e2e_ms = task.enqueued.ElapsedMillis();
  double exec_ms = std::max(0.0, e2e_ms - task.admission_wait_ms);
  // Shed classification matches the legacy loop: a kDeadlineExceeded whose
  // deadline was already gone when parse dispatched it is a queue shed.
  double deadline_ms = engine_->config().deadline_ms;
  bool shed = deadline_ms > 0.0 && !result.ok() &&
              result.status().code() == StatusCode::kDeadlineExceeded &&
              task.admission_wait_ms >= deadline_ms;
  {
    // Count completion BEFORE fulfilling the promise: a caller that has
    // observed its future ready must see `completed` include that task.
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.completed++;
    metrics_.exec_ms_total += exec_ms;
    admission_.OnComplete(task.tenant, e2e_ms, shed);
  }
  // The freed inflight slot (or an AIMD limit raise) may have made a
  // queued task dispatchable at the parse stage.
  not_empty_.notify_one();
  if (engine_->metrics_enabled()) {
    queue_wait_hist_->Observe(task.admission_wait_ms);
    exec_hist_->Observe(exec_ms);
    e2e_hist_->Observe(e2e_ms);
  }
  task.promise.set_value(std::move(result));
}

void QueryExecutor::ParseLoop() {
  for (;;) {
    Task task;
    double wait_ms;
    size_t tenant;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Same dispatch head as the legacy loop: weighted-fair pick under
      // the admission limit, unconditional drain on shutdown.
      not_empty_.wait(
          lock, [this] { return shutdown_ || admission_.CanDispatch(); });
      if (!admission_.HasRunnable()) return;  // shutdown, queues drained
      tenant = admission_.BeginDispatch();
      task = std::move(tenant_queues_[tenant].front());
      tenant_queues_[tenant].pop_front();
      wait_ms = task.queued.ElapsedMillis();
      metrics_.queue_wait_ms_total += wait_ms;
      metrics_.queue_wait_ms_max =
          std::max(metrics_.queue_wait_ms_max, wait_ms);
    }
    not_full_.notify_all();

    WallTimer busy;
    PipelineTask pt;
    pt.tenant = tenant;
    pt.admission_wait_ms = wait_ms;
    pt.enqueued = task.queued;
    pt.promise = std::move(task.promise);

    Result<std::unique_ptr<PreparedSearch>> prep =
        engine_->BeginSearch(task.query, task.mode, wait_ms);
    Status st = prep.ok() ? engine_->SearchStats(**prep) : prep.status();
    {
      std::lock_guard<std::mutex> lock(mu_);
      pipeline_counters_.parse_processed++;
      pipeline_counters_.parse_busy_ms += busy.ElapsedMillis();
    }
    if (!st.ok()) {
      // Validation errors, pre-execution sheds, and hard stats-phase trips
      // finalize right here — they never occupy downstream queues.
      FinalizeTask(pt, std::move(st));
      continue;
    }
    pt.ps = std::move(*prep);
    // Sorted unique keywords ∪ context: the batching key the intersect
    // stage groups on. Both inputs are sorted (FromKeywords dedups, the
    // context is validated sorted), but re-sorting is cheap and immune to
    // contract drift.
    pt.terms = pt.ps->qstats.keywords;
    pt.terms.insert(pt.terms.end(), pt.ps->query.context.begin(),
                    pt.ps->query.context.end());
    std::sort(pt.terms.begin(), pt.terms.end());
    pt.terms.erase(std::unique(pt.terms.begin(), pt.terms.end()),
                   pt.terms.end());
    pt.staged.Restart();
    // Push blocks while the intersect queue is full: that is the
    // backpressure that keeps admission queues deep and rejection honest.
    // False (queue closed) is unreachable while this producer runs —
    // Shutdown closes the queue only after parse workers join.
    if (!intersect_q_->Push(std::move(pt))) return;
  }
}

void QueryExecutor::IntersectLoop() {
  const size_t max_batch = std::max<size_t>(1, config_.pipeline.max_batch);
  DecodedBlockArena arena(config_.pipeline.arena_bytes);
  // LiveSet pins of the batch's members, held until after arena.Clear():
  // arena keys are raw list pointers, and a member whose snapshot was
  // released mid-batch (it moved on to scoring, or failed) could let a
  // concurrent merge free and re-allocate a list at the same address.
  std::vector<std::shared_ptr<const LiveSet>> pins;
  PipelineTask pt;
  while (intersect_q_->Pop(pt)) {
    // A batch grows one member at a time: after each member, the worker
    // takes the oldest queued task sharing a term with the head, up to
    // max_batch. Taking one at a time leaves every other queued task to
    // whichever intersect worker frees up first, so no worker idles
    // while term-sharing tasks wait behind another worker's batch. The
    // arena is installed only once a second member is in view — a batch
    // of one has nothing to share and decodes privately.
    const std::vector<TermId> head_terms = pt.terms;
    std::optional<DecodedBlockArena::Scope> scope;
    if (max_batch > 1 && intersect_q_->HasSharing(head_terms)) {
      scope.emplace(&arena);
    }
    uint64_t hits0 = arena.hits();
    uint64_t misses0 = arena.misses();
    size_t size = 0;
    double wait_ms = 0;
    double busy_ms = 0;
    for (;;) {
      ++size;
      double w = pt.staged.ElapsedMillis();
      wait_ms += w;
      // Inter-stage wait counts against the query deadline automatically
      // (the ScanGuard wall clock has been running since BeginSearch);
      // NoteStageWait records it for the trip message and the trace.
      engine_->NoteStageWait(*pt.ps, "intersect", w);
      if (scope) pins.push_back(pt.ps->live);
      WallTimer busy;
      Status st = engine_->SearchIntersect(*pt.ps);
      busy_ms += busy.ElapsedMillis();

      // Take the next member before handing this one on, so a batch is
      // tallied before its last member can complete: a caller holding
      // every result sees every batch counted.
      PipelineTask next;
      bool more =
          size < max_batch && intersect_q_->PopSharing(head_terms, next);
      if (!more) {
        scope.reset();
        arena.Clear();
        pins.clear();
        std::lock_guard<std::mutex> lock(mu_);
        PipelineCounters& c = pipeline_counters_;
        c.intersect_processed += size;
        c.intersect_busy_ms += busy_ms;
        c.intersect_wait_ms += wait_ms;
        c.batches++;
        if (size >= 2) c.batched_queries += size;
        c.max_batch = std::max(c.max_batch, size);
        if (size < c.batch_size_counts.size()) c.batch_size_counts[size]++;
        c.arena_hits += arena.hits() - hits0;
        c.arena_misses += arena.misses() - misses0;
      }
      if (!st.ok()) {
        FinalizeTask(pt, std::move(st));
      } else {
        pt.staged.Restart();
        if (!score_q_->Push(std::move(pt))) return;
      }
      if (!more) break;
      pt = std::move(next);
      if (!scope) scope.emplace(&arena);
    }
    pt = PipelineTask{};  // release the PreparedSearch before blocking
  }
}

void QueryExecutor::ScoreLoop() {
  PipelineTask pt;
  while (score_q_->Pop(pt)) {
    double w = pt.staged.ElapsedMillis();
    engine_->NoteStageWait(*pt.ps, "score", w);
    WallTimer busy;
    Result<SearchResult> result = engine_->FinishSearch(*pt.ps);
    {
      std::lock_guard<std::mutex> lock(mu_);
      pipeline_counters_.score_processed++;
      pipeline_counters_.score_busy_ms += busy.ElapsedMillis();
      pipeline_counters_.score_wait_ms += w;
    }
    FinalizeTask(pt, std::move(result));
    pt = PipelineTask{};  // release the PreparedSearch before blocking
  }
}

ExecutorMetrics QueryExecutor::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecutorMetrics snapshot = metrics_;
  snapshot.queue_depth = admission_.total_depth();
  return snapshot;
}

PipelineMetrics QueryExecutor::pipeline() const {
  PipelineMetrics m;
  m.enabled = config_.pipeline.enabled;
  if (!m.enabled) return m;
  m.uptime_ms = uptime_.ElapsedMillis();
  m.parse.workers = static_cast<uint32_t>(parse_workers_.size());
  m.intersect.workers = static_cast<uint32_t>(intersect_workers_.size());
  m.score.workers = static_cast<uint32_t>(score_workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const PipelineCounters& c = pipeline_counters_;
    m.parse.processed = c.parse_processed;
    m.parse.busy_ms_total = c.parse_busy_ms;
    m.parse.queue_wait_ms_total = metrics_.queue_wait_ms_total;
    m.parse.queue_depth = admission_.total_depth();
    m.parse.max_queue_depth = metrics_.max_queue_depth;
    m.intersect.processed = c.intersect_processed;
    m.intersect.busy_ms_total = c.intersect_busy_ms;
    m.intersect.queue_wait_ms_total = c.intersect_wait_ms;
    m.score.processed = c.score_processed;
    m.score.busy_ms_total = c.score_busy_ms;
    m.score.queue_wait_ms_total = c.score_wait_ms;
    m.batches = c.batches;
    m.batched_queries = c.batched_queries;
    m.max_batch = c.max_batch;
    m.batch_size_counts = c.batch_size_counts;
    m.arena_hits = c.arena_hits;
    m.arena_misses = c.arena_misses;
  }
  m.intersect.queue_depth = intersect_q_->depth();
  m.intersect.max_queue_depth = intersect_q_->max_depth();
  m.score.queue_depth = score_q_->depth();
  m.score.max_queue_depth = score_q_->max_depth();
  return m;
}

AdmissionSnapshot QueryExecutor::admission() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_.snapshot();
}

size_t QueryExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_.total_depth();
}

}  // namespace csr
