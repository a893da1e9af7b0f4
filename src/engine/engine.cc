#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "engine/merger.h"
#include "engine/top_k.h"
#include "index/intersection.h"
#include "index/simd_intersect.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace csr {

ContextSearchEngine::~ContextSearchEngine() {
  // The adaptive thread's materialize hook reads live state (and the
  // merger publishes it), so stop adaptive first, then the merger.
  StopAdaptiveSelection();
  StopBackgroundMerge();
}

std::string_view EvaluationModeName(EvaluationMode mode) {
  switch (mode) {
    case EvaluationMode::kConventional:
      return "conventional";
    case EvaluationMode::kContextStraightforward:
      return "context-straightforward";
    case EvaluationMode::kContextWithViews:
      return "context-with-views";
  }
  return "unknown";
}

Result<std::unique_ptr<ContextSearchEngine>> ContextSearchEngine::Build(
    Corpus corpus, EngineConfig config) {
  if (corpus.docs.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  if (config.top_k == 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  auto engine = std::unique_ptr<ContextSearchEngine>(new ContextSearchEngine());
  engine->corpus_ = std::move(corpus);
  engine->config_ = config;
  engine->ranking_ = MakeRankingFunction(config.ranking);
  if (engine->ranking_ == nullptr) {
    return Status::InvalidArgument("unknown ranking function: " +
                                   config.ranking);
  }
  if (engine->ranking_->NeedsTermCounts() && !config.track_tc) {
    return Status::InvalidArgument(
        "ranking function '" + config.ranking +
        "' needs tc statistics; set EngineConfig::track_tc");
  }

  // Content and predicate indexes.
  IndexBuilder content_builder(config.segment_size);
  IndexBuilder predicate_builder(config.segment_size);
  for (const Document& d : engine->corpus_.docs) {
    CSR_RETURN_NOT_OK(content_builder.AddDocument(d.id, d.ContentTokens()));
    CSR_RETURN_NOT_OK(predicate_builder.AddDocument(d.id, d.annotations));
  }
  engine->content_index_ = content_builder.Build();
  engine->predicate_index_ = predicate_builder.Build();
  return Finish(std::move(engine));
}

Result<std::unique_ptr<ContextSearchEngine>>
ContextSearchEngine::BuildWithIndexes(Corpus corpus, EngineConfig config,
                                      InvertedIndex content_index,
                                      InvertedIndex predicate_index) {
  if (corpus.docs.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  if (config.top_k == 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  if (content_index.num_docs() != predicate_index.num_docs() ||
      content_index.num_docs() == 0 ||
      content_index.num_docs() > corpus.docs.size()) {
    return Status::InvalidArgument(
        "indexes cover " + std::to_string(content_index.num_docs()) + "/" +
        std::to_string(predicate_index.num_docs()) +
        " documents but the corpus has " + std::to_string(corpus.docs.size()) +
        " (the base must be a non-empty prefix)");
  }
  auto engine = std::unique_ptr<ContextSearchEngine>(new ContextSearchEngine());
  engine->corpus_ = std::move(corpus);
  engine->config_ = config;
  engine->ranking_ = MakeRankingFunction(config.ranking);
  if (engine->ranking_ == nullptr) {
    return Status::InvalidArgument("unknown ranking function: " +
                                   config.ranking);
  }
  if (engine->ranking_->NeedsTermCounts() && !config.track_tc) {
    return Status::InvalidArgument(
        "ranking function '" + config.ranking +
        "' needs tc statistics; set EngineConfig::track_tc");
  }
  engine->content_index_ = std::move(content_index);
  engine->predicate_index_ = std::move(predicate_index);
  return Finish(std::move(engine));
}

Result<std::unique_ptr<ContextSearchEngine>> ContextSearchEngine::Finish(
    std::unique_ptr<ContextSearchEngine> engine) {
  const EngineConfig& config = engine->config_;
  if (config.compressed_postings) engine->CompactIndexes();

  // The indexes define the BASE segment; it may be a prefix of the corpus
  // (segmented snapshot load — the tail is installed as extra segments
  // afterwards). years_ is base-local: extras carry their own year arrays
  // so appends never reallocate a vector under a concurrent query.
  engine->base_docs_ = engine->content_index_.num_docs();
  engine->years_.reserve(engine->base_docs_);
  for (uint64_t i = 0; i < engine->base_docs_; ++i) {
    engine->years_.push_back(engine->corpus_.docs[i].year);
  }
  auto live = std::make_shared<LiveSet>();
  live->base_docs = engine->base_docs_;
  live->total_docs = engine->base_docs_;
  live->epoch = 1;
  {
    std::lock_guard<std::mutex> lock(engine->live_mu_);
    engine->live_ = std::move(live);
  }

  engine->context_threshold_ = static_cast<uint64_t>(
      config.context_threshold_fraction *
      static_cast<double>(engine->corpus_.docs.size()));
  if (engine->context_threshold_ == 0) engine->context_threshold_ = 1;

  engine->tracked_ = TrackedKeywords::Select(
      engine->content_index_, engine->context_threshold_, config.tracked_cap);
  engine->param_table_ = std::make_unique<DocParamTable>(
      DocParamTable::Build(engine->content_index_, engine->tracked_));
  engine->estimator_ = std::make_unique<ViewSizeEstimator>(
      &engine->corpus_, /*seed=*/engine->corpus_.config.seed ^ 0x5EED,
      config.estimator_sample);
  engine->atm_ = std::make_unique<AtmMapper>(&engine->corpus_,
                                             &engine->content_index_,
                                             &engine->predicate_index_);
  if (config.stats_cache_capacity > 0) {
    engine->stats_cache_ =
        std::make_unique<StatsCache>(config.stats_cache_capacity);
  }
  if (config.context_set_cache_bytes > 0) {
    engine->context_set_cache_ = std::make_unique<ContextSetCache>(
        config.context_set_cache_bytes, engine->registry_);
  }
  engine->metrics_enabled_.store(config.metrics_enabled,
                                 std::memory_order_relaxed);
  engine->view_breaker_.Configure(config.view_breaker);
  engine->set_trace_sample_rate(config.trace_sample_rate);
  engine->InitAdaptive();
  engine->RegisterMetrics();
  if (config.background_merge) engine->StartBackgroundMerge();
  if (config.adaptive_background) engine->StartAdaptiveSelection();
  return engine;
}

void ContextSearchEngine::InitAdaptive() {
  if (config_.adaptive_view_budget_bytes == 0) return;
  AdaptiveSelectionConfig acfg;
  acfg.budget_bytes = config_.adaptive_view_budget_bytes;
  acfg.half_life = config_.adaptive_half_life;
  acfg.min_score = config_.adaptive_min_score_ms;
  acfg.max_context_terms = config_.adaptive_max_context_terms;
  acfg.cooldown_steps = config_.adaptive_cooldown_steps;
  acfg.interval_ms = config_.adaptive_interval_ms;
  AdaptiveViewController::Hooks hooks;
  hooks.materialize = [this](const ViewDefinition& def,
                             std::shared_ptr<const AdaptiveView> prior) {
    return BuildAdaptiveView(def, std::move(prior));
  };
  hooks.estimate_bytes = [this](const ViewDefinition& def) {
    return estimator_->EstimateBytes(
        def, ViewParams(), static_cast<uint32_t>(tracked_.size()));
  };
  hooks.live_epoch = [this] { return SnapshotLive()->epoch; };
  adaptive_ = std::make_unique<AdaptiveViewController>(acfg, std::move(hooks));
}

bool ContextSearchEngine::AdaptiveStep() const {
  return adaptive_ != nullptr && adaptive_->Step();
}

void ContextSearchEngine::StartAdaptiveSelection() {
  if (adaptive_ != nullptr) adaptive_->Start();
}

void ContextSearchEngine::StopAdaptiveSelection() {
  if (adaptive_ != nullptr) adaptive_->Stop();
}

void ContextSearchEngine::set_trace_sample_rate(double rate) {
  uint32_t period = 0;
  if (rate >= 1.0) {
    period = 1;
  } else if (rate > 0.0) {
    period = static_cast<uint32_t>(std::lround(1.0 / rate));
    if (period == 0) period = 1;
  }
  trace_period_.store(period, std::memory_order_relaxed);
}

bool ContextSearchEngine::ShouldTrace() const {
  uint32_t period = trace_period_.load(std::memory_order_relaxed);
  if (period == 0) return false;
  uint64_t seq = trace_sequence_.fetch_add(1, std::memory_order_relaxed);
  return seq % period == 0;
}

void ContextSearchEngine::RegisterMetrics() {
  // Hot-path instruments: resolved once here, updated through the cached
  // pointers with relaxed atomics (no lock, no name lookup per query).
  hot_.queries = &registry_.GetCounter("engine.queries");
  hot_.queries_failed = &registry_.GetCounter("engine.queries_failed");
  hot_.queries_degraded = &registry_.GetCounter("engine.queries_degraded");
  hot_.traces_sampled = &registry_.GetCounter("engine.traces_sampled");
  hot_.plan_view_hits = &registry_.GetCounter("engine.plan.view_hits");
  hot_.plan_straightforward =
      &registry_.GetCounter("engine.plan.straightforward");
  hot_.plan_conventional = &registry_.GetCounter("engine.plan.conventional");
  hot_.plan_cache_hits =
      &registry_.GetCounter("engine.plan.stats_cache_hits");
  hot_.plan_view_fallbacks =
      &registry_.GetCounter("engine.plan.view_fallbacks");
  hot_.plan_adaptive_hits =
      &registry_.GetCounter("engine.plan.adaptive_view_hits");
  hot_.cost_entries_scanned =
      &registry_.GetCounter("engine.cost.entries_scanned");
  hot_.cost_segments_touched =
      &registry_.GetCounter("engine.cost.segments_touched");
  hot_.cost_skips_taken = &registry_.GetCounter("engine.cost.skips_taken");
  hot_.cost_aggregation_entries =
      &registry_.GetCounter("engine.cost.aggregation_entries");
  hot_.cost_view_tuples_scanned =
      &registry_.GetCounter("engine.cost.view_tuples_scanned");
  hot_.cost_blocks_skipped =
      &registry_.GetCounter("engine.cost.blocks_skipped");
  hot_.cost_bytes_touched =
      &registry_.GetCounter("engine.cost.bytes_touched");
  hot_.total_ms = &registry_.GetHistogram("engine.latency.total_ms");
  hot_.stats_ms = &registry_.GetHistogram("engine.latency.stats_ms");
  hot_.retrieval_ms = &registry_.GetHistogram("engine.latency.retrieval_ms");
  hot_.ingest_docs = &registry_.GetCounter("ingest.appended_docs");
  hot_.ingest_batches = &registry_.GetCounter("ingest.batches");
  hot_.ingest_seals = &registry_.GetCounter("ingest.seals");
  hot_.segment_merges = &registry_.GetCounter("segments.merges");
  hot_.segment_merged_docs = &registry_.GetCounter("segments.merged_docs");
  hot_.view_delta_folds = &registry_.GetCounter("view.delta.folds");
  hot_.view_delta_merges = &registry_.GetCounter("view.delta.merges");

  // Legacy counters register INTO the registry via sample callbacks: each
  // struct stays authoritative (existing accessors and tests unchanged) and
  // is read under its own synchronization discipline only at Snapshot time.
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    const DegradationStats& d = degradation_;  // relaxed atomics
    snap.counters["engine.degradation.views_quarantined"] =
        d.views_quarantined;
    snap.counters["engine.degradation.quarantine_fallbacks"] =
        d.quarantine_fallbacks;
    snap.counters["engine.degradation.deadline_hits"] = d.deadline_hits;
    snap.counters["engine.degradation.budget_hits"] = d.budget_hits;
    snap.counters["engine.degradation.fault_trips"] = d.fault_trips;
    snap.counters["engine.degradation.degraded_queries"] = d.degraded_queries;
    snap.counters["engine.degradation.view_read_faults"] =
        d.view_read_faults;
    snap.counters["engine.degradation.segments_quarantined"] =
        d.segments_quarantined;
  });
  registry_.AddSampleCallback([](csr::MetricsSnapshot& snap) {
    // Intersection-kernel selector decisions (DESIGN.md §15). The tallies
    // are process-wide relaxed atomics in simd_intersect.cc — shared
    // across engines, monotone, read without locks.
    const IntersectTallies t = SnapshotIntersectTallies();
    snap.counters["intersect.kernel.pairwise"] = t.pairwise;
    snap.counters["intersect.kernel.wide_probe"] = t.wide_probe;
    snap.counters["intersect.kernel.gallop"] = t.gallop;
    for (size_t i = 0; i < kIntersectRatioBuckets; ++i) {
      if (t.ratio_hist[i] == 0) continue;  // keep .metrics output dense
      std::string name = "intersect.ratio." + std::to_string(1ull << i);
      if (i + 1 < kIntersectRatioBuckets) {
        name += "_" + std::to_string(1ull << (i + 1));
      } else {
        name += "_plus";
      }
      snap.counters[name] = t.ratio_hist[i];
    }
  });
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    // Segment shape and view-delta staleness bound (DESIGN.md §14). One
    // snapshot copy under the leaf live mutex; everything read from it is
    // immutable.
    std::shared_ptr<const LiveSet> live = SnapshotLive();
    uint64_t sealed = 0;
    uint64_t buffer_docs = 0;
    uint64_t delta_tuples = 0;
    for (const auto& es : live->extras) {
      if (es->index.sealed) {
        ++sealed;
      } else {
        buffer_docs += es->index.num_docs;
      }
      for (const MaterializedView& v : es->view_deltas) {
        delta_tuples += v.NumTuples();
      }
    }
    snap.gauges["segments.live"] =
        static_cast<double>(1 + live->extras.size());
    snap.gauges["segments.sealed"] = static_cast<double>(sealed);
    snap.gauges["segments.buffer_docs"] = static_cast<double>(buffer_docs);
    snap.gauges["ingest.total_docs"] = static_cast<double>(live->total_docs);
    snap.gauges["ingest.base_docs"] = static_cast<double>(live->base_docs);
    // The per-view staleness bound: how many documents' worth of aggregates
    // live in query-time-folded deltas rather than the base catalog. Views
    // are always exact — this bounds merge lag, not error.
    snap.gauges["view.delta.staleness_docs"] =
        static_cast<double>(live->total_docs - live->base_docs);
    snap.gauges["view.delta.tuples"] = static_cast<double>(delta_tuples);
  });
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    // Overload-resilience telemetry (DESIGN.md §13). The budget is
    // process-wide (one bucket shared by every retried site); the breaker
    // is this engine's view-path breaker. Both are internally
    // synchronized leaf components, safe to read under the registry mutex.
    const RetryBudget& budget = RetryBudget::Global();
    snap.counters["retry.withdrawals"] = budget.withdrawals();
    snap.counters["retry.denials"] = budget.denials();
    snap.counters["retry.deposits"] = budget.deposits();
    snap.gauges["retry.tokens"] = budget.tokens();
    snap.gauges["retry.capacity"] = budget.capacity();
    snap.counters["breaker.trips"] = view_breaker_.trips();
    snap.counters["breaker.recoveries"] = view_breaker_.recoveries();
    snap.counters["breaker.short_circuits"] = view_breaker_.short_circuits();
    snap.counters["breaker.probes"] = view_breaker_.probes();
    snap.gauges["breaker.state"] =
        static_cast<double>(static_cast<uint32_t>(view_breaker_.state()));
  });
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    if (stats_cache_ == nullptr) return;
    // Each accessor sums the shards under their own mutexes; monotonic but
    // not one atomic cross-shard snapshot (the StatsCache contract).
    snap.counters["engine.stats_cache.hits"] = stats_cache_->hits();
    snap.counters["engine.stats_cache.misses"] = stats_cache_->misses();
    snap.counters["engine.stats_cache.evictions"] =
        stats_cache_->evictions();
    snap.gauges["engine.stats_cache.entries"] =
        static_cast<double>(stats_cache_->size());
  });
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    // Catalog shape. Search holds no lock on the catalog (it is immutable
    // during serving; mutators require exclusive access), so neither does
    // this sample.
    snap.gauges["engine.views.materialized"] =
        static_cast<double>(catalog_.size());
    snap.gauges["engine.views.quarantined"] =
        static_cast<double>(catalog_.quarantined().size());
  });
  registry_.AddSampleCallback([this](csr::MetricsSnapshot& snap) {
    // Adaptive view cache (DESIGN.md §17): monotone telemetry counters
    // plus a point-in-time read of the published version. Both are leaf-
    // synchronized (relaxed atomics / one shared_ptr copy).
    if (adaptive_ == nullptr) return;
    const AdaptiveCacheTelemetry& t = adaptive_->telemetry();
    uint64_t hits = t.hits;
    uint64_t misses = t.misses;
    snap.counters["view.cache.hits"] = hits;
    snap.counters["view.cache.misses"] = misses;
    snap.counters["view.cache.installs"] = t.installs;
    snap.counters["view.cache.evictions"] = t.evictions;
    snap.counters["view.cache.refreshes"] = t.refreshes;
    snap.counters["view.cache.rejected_budget"] = t.rejected_budget;
    snap.counters["view.cache.build_failures"] = t.build_failures;
    snap.counters["view.cache.stale_part_fallbacks"] = t.stale_part_fallbacks;
    double build_ms = static_cast<double>(t.build_micros) / 1000.0;
    snap.gauges["view.cache.build_ms_total"] = build_ms;
    snap.gauges["view.cache.hit_rate"] =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    // Build-cost amortization: milliseconds of materialization paid per
    // view hit so far (drops toward zero as residents keep paying off).
    snap.gauges["view.cache.build_ms_per_hit"] =
        hits == 0 ? build_ms : build_ms / static_cast<double>(hits);
    auto version = adaptive_->Snapshot();
    snap.gauges["view.cache.resident_views"] =
        static_cast<double>(version->views.size());
    snap.gauges["view.cache.resident_bytes"] =
        static_cast<double>(version->resident_bytes);
    snap.gauges["view.cache.budget_bytes"] =
        static_cast<double>(adaptive_->config().budget_bytes);
    snap.gauges["view.cache.version"] =
        static_cast<double>(version->version);
    snap.gauges["view.cache.candidates"] =
        static_cast<double>(adaptive_->CandidateCount());
  });
}

void ContextSearchEngine::RecordQueryMetrics(const SearchMetrics& m,
                                             EvaluationMode mode,
                                             bool failed) const {
  hot_.queries->Increment();
  if (failed) {
    hot_.queries_failed->Increment();
    return;
  }
  if (m.degraded) hot_.queries_degraded->Increment();
  // Plan-choice accounting: exactly one plan counter per successful query,
  // classifying how the statistics phase was answered.
  if (mode == EvaluationMode::kConventional) {
    hot_.plan_conventional->Increment();
  } else if (m.stats_cache_hit) {
    hot_.plan_cache_hits->Increment();
  } else if (m.used_view) {
    hot_.plan_view_hits->Increment();
    if (m.used_adaptive_view) hot_.plan_adaptive_hits->Increment();
  } else if (m.fell_back_to_straightforward) {
    hot_.plan_view_fallbacks->Increment();
  } else {
    hot_.plan_straightforward->Increment();
  }
  hot_.cost_entries_scanned->Increment(m.cost.entries_scanned);
  hot_.cost_segments_touched->Increment(m.cost.segments_touched);
  hot_.cost_skips_taken->Increment(m.cost.skips_taken);
  hot_.cost_aggregation_entries->Increment(m.cost.aggregation_entries);
  hot_.cost_view_tuples_scanned->Increment(m.cost.view_tuples_scanned);
  hot_.cost_blocks_skipped->Increment(m.cost.blocks_skipped);
  hot_.cost_bytes_touched->Increment(m.cost.bytes_touched);
  hot_.total_ms->Observe(m.total_ms);
  hot_.stats_ms->Observe(m.stats_ms);
  hot_.retrieval_ms->Observe(m.retrieval_ms);
}

namespace {

// Exclusive mutators invalidate the shapes adaptive residents were built
// against (base indexes, tracked table, estimator), so they stop the
// controller, drop its resident set, and restart the background thread on
// exit. Nested mutators (SelectAndMaterializeViews -> FlattenSegments) are
// safe: the inner guard observes the thread already stopped and leaves the
// restart to the outer one.
class AdaptiveExclusiveGuard {
 public:
  explicit AdaptiveExclusiveGuard(AdaptiveViewController* c) : c_(c) {
    if (c_ == nullptr) return;
    was_running_ = c_->running();
    c_->Stop();
    c_->Reset();
  }
  ~AdaptiveExclusiveGuard() {
    if (c_ != nullptr && was_running_) c_->Start();
  }
  AdaptiveExclusiveGuard(const AdaptiveExclusiveGuard&) = delete;
  AdaptiveExclusiveGuard& operator=(const AdaptiveExclusiveGuard&) = delete;

 private:
  AdaptiveViewController* c_;
  bool was_running_ = false;
};

}  // namespace

void ContextSearchEngine::CompactIndexes() {
  AdaptiveExclusiveGuard adaptive_guard(adaptive_.get());
  content_index_.Compact(/*block_size=*/0, config_.codec_policy);
  predicate_index_.Compact(/*block_size=*/0, config_.codec_policy);
  catalog_.CompactAll();
  // Sealed extras are compacted at seal time and the write buffer stays
  // uncompressed by design, so only the base needs work here.
}

// -- Live-set plumbing (DESIGN.md §14) -----------------------------------

std::shared_ptr<const LiveSet> ContextSearchEngine::SnapshotLive() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_;
}

void ContextSearchEngine::PublishLive(std::shared_ptr<LiveSet> next) {
  next->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(live_mu_);
  live_ = std::move(next);
}

std::vector<SearchPart> ContextSearchEngine::MakeParts(
    const LiveSet& live) const {
  std::vector<SearchPart> parts;
  parts.reserve(1 + live.extras.size());
  SearchPart base;
  base.content = &content_index_;
  base.predicate = &predicate_index_;
  base.years = std::span<const uint16_t>(years_);
  base.base = 0;
  base.segment_id = 0;
  parts.push_back(base);
  for (const auto& es : live.extras) {
    SearchPart p;
    p.content = &es->index.content;
    p.predicate = &es->index.predicate;
    p.years = std::span<const uint16_t>(es->index.years);
    p.base = es->index.base;
    p.segment_id = es->index.id;
    p.sealed = es->index.sealed;
    p.view_deltas = &es->view_deltas;
    parts.push_back(p);
  }
  return parts;
}

uint64_t ContextSearchEngine::total_docs() const {
  return SnapshotLive()->total_docs;
}

uint16_t ContextSearchEngine::doc_year(DocId d) const {
  if (d < years_.size()) return years_[d];
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  for (const auto& es : live->extras) {
    if (d >= es->index.base && d < es->index.base + es->index.num_docs) {
      return es->index.years[d - es->index.base];
    }
  }
  return 0;
}

std::vector<SegmentInfo> ContextSearchEngine::SegmentInfos() const {
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  std::vector<SegmentInfo> infos;
  infos.reserve(1 + live->extras.size());
  SegmentInfo base;
  base.id = 0;
  base.base = 0;
  base.num_docs = static_cast<uint32_t>(base_docs_);
  base.sealed = true;
  base.codec_blocks = content_index_.CodecBlockCounts();
  base.view_delta_tuples = catalog_.TotalTuples();
  base.memory_bytes =
      content_index_.MemoryBytes() + predicate_index_.MemoryBytes();
  infos.push_back(base);
  for (const auto& es : live->extras) {
    SegmentInfo info;
    info.id = es->index.id;
    info.base = es->index.base;
    info.num_docs = es->index.num_docs;
    info.sealed = es->index.sealed;
    info.codec_blocks = es->index.content.CodecBlockCounts();
    for (const MaterializedView& v : es->view_deltas) {
      info.view_delta_tuples += v.NumTuples();
    }
    info.memory_bytes = es->index.MemoryBytes();
    infos.push_back(info);
  }
  return infos;
}

std::vector<MaterializedView> ContextSearchEngine::BuildViewDeltasLocked(
    const InvertedIndex& content, DocId first, DocId end) const {
  std::vector<MaterializedView> deltas;
  if (catalog_.size() == 0) return deltas;
  std::vector<ViewDefinition> defs;
  defs.reserve(catalog_.size());
  for (size_t i = 0; i < catalog_.size(); ++i) {
    defs.push_back(catalog_.view(i).def());
  }
  // The segment's param table is local (row 0 = global doc `first`), so
  // the builder maps corpus docids down by table_base.
  DocParamTable local_table = DocParamTable::Build(content, tracked_);
  ViewBuilder builder(&corpus_, &local_table, ViewParams(),
                      static_cast<uint32_t>(tracked_.size()),
                      /*table_base=*/first);
  deltas = builder.BuildRange(defs, first, end);
  return deltas;
}

std::shared_ptr<const AdaptiveView> ContextSearchEngine::BuildAdaptiveView(
    const ViewDefinition& def,
    std::shared_ptr<const AdaptiveView> prior) const {
  // Pin ONE LiveSet snapshot for the whole build: the shared_ptrs keep
  // every segment alive even if a concurrent merge retires it, so the
  // build always completes against a consistent collection state. Built
  // over indexes only — never corpus_.docs, which concurrent appends grow
  // (vector reallocation under a reader). If parts of the snapshot are
  // merged away before install, queries detect the id mismatch per part
  // and fall back; the controller's refresh path tops the view up.
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  if (adaptive_build_intercept_) adaptive_build_intercept_();
  if (def.num_columns() == 0 || def.num_columns() > 64) return nullptr;

  auto av = std::make_shared<AdaptiveView>();
  av->def = def;
  av->built_epoch = live->epoch;
  av->base_docs = live->base_docs;

  // Base members (content_index_, predicate_index_, years_, tracked_) are
  // only mutated by exclusive mutators, which stop this thread first —
  // see AdaptiveExclusiveGuard. A top-up refresh reuses the prior base
  // outright when the base extent is unchanged.
  if (prior != nullptr && prior->base != nullptr &&
      prior->base_docs == live->base_docs) {
    av->base = prior->base;
  } else {
    MaterializedView base = BuildViewFromIndexes(
        def, ViewParams(), tracked_, content_index_, predicate_index_,
        years_);
    base.Compact();
    av->base = std::make_shared<const MaterializedView>(std::move(base));
  }
  av->bytes = av->base->MemoryBytes();

  for (const auto& es : live->extras) {
    AdaptiveDelta delta;
    delta.segment_id = es->index.id;
    delta.base = es->index.base;
    delta.num_docs = es->index.num_docs;
    // Reuse the prior's delta for a still-live segment (ids are never
    // reused with different content, so an id + extent match is exact).
    if (prior != nullptr) {
      for (const AdaptiveDelta& pd : prior->deltas) {
        if (pd.segment_id == delta.segment_id && pd.base == delta.base &&
            pd.num_docs == delta.num_docs) {
          delta.view = pd.view;
          break;
        }
      }
    }
    if (delta.view == nullptr) {
      MaterializedView dv = BuildViewFromIndexes(
          def, ViewParams(), tracked_, es->index.content, es->index.predicate,
          es->index.years);
      dv.Compact();
      delta.view = std::make_shared<const MaterializedView>(std::move(dv));
    }
    av->bytes += delta.view->MemoryBytes();
    av->deltas.push_back(std::move(delta));
  }
  return av;
}

Result<std::shared_ptr<EngineSegment>> ContextSearchEngine::BuildSegmentLocked(
    DocId first, DocId end, bool seal) {
  auto segment = std::make_shared<EngineSegment>();
  IndexBuilder content_builder(config_.segment_size);
  IndexBuilder predicate_builder(config_.segment_size);
  segment->index.years.reserve(end - first);
  for (DocId i = first; i < end; ++i) {
    const Document& d = corpus_.docs[i];
    CSR_RETURN_NOT_OK(
        content_builder.AddDocument(i - first, d.ContentTokens()));
    CSR_RETURN_NOT_OK(predicate_builder.AddDocument(i - first, d.annotations));
    segment->index.years.push_back(d.year);
  }
  segment->index.content = content_builder.Build();
  segment->index.predicate = predicate_builder.Build();
  segment->index.id = next_segment_id_++;
  segment->index.base = first;
  segment->index.num_docs = end - first;
  segment->index.sealed = seal;
  // Deltas are built from the uncompressed index (DocParamTable walks
  // posting lists), then everything compacts when the segment seals.
  segment->view_deltas =
      BuildViewDeltasLocked(segment->index.content, first, end);
  if (seal && config_.compressed_postings) {
    segment->index.content.Compact(/*block_size=*/0, config_.codec_policy);
    segment->index.predicate.Compact(/*block_size=*/0, config_.codec_policy);
    for (MaterializedView& v : segment->view_deltas) v.Compact();
  }
  return segment;
}

Status ContextSearchEngine::ResegmentTailLocked(DocId tail_first) {
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  auto next = std::make_shared<LiveSet>();
  next->base_docs = live->base_docs;
  for (const auto& es : live->extras) {
    if (es->index.base + es->index.num_docs <= tail_first) {
      next->extras.push_back(es);
    } else if (es->index.base < tail_first) {
      return Status::Internal("segment straddles the resegmented tail");
    }
  }
  const DocId end = static_cast<DocId>(corpus_.docs.size());
  const uint32_t seal_at =
      config_.mem_segment_max_docs == 0 ? UINT32_MAX
                                        : config_.mem_segment_max_docs;
  DocId pos = tail_first;
  while (end - pos >= seal_at) {
    CSR_ASSIGN_OR_RETURN(std::shared_ptr<EngineSegment> seg,
                         BuildSegmentLocked(pos, pos + seal_at,
                                            /*seal=*/true));
    next->extras.push_back(std::move(seg));
    pos += seal_at;
    hot_.ingest_seals->Increment();
  }
  if (pos < end) {
    CSR_ASSIGN_OR_RETURN(std::shared_ptr<EngineSegment> seg,
                         BuildSegmentLocked(pos, end, /*seal=*/false));
    next->extras.push_back(std::move(seg));
  }
  next->total_docs = end;
  PublishLive(std::move(next));
  if (stats_cache_ != nullptr) stats_cache_->Clear();
  return Status::OK();
}

uint64_t ContextSearchEngine::ContextSize(
    std::span<const TermId> context) const {
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  std::vector<SearchPart> parts = MakeParts(*live);
  uint64_t total = 0;
  for (const SearchPart& part : parts) {
    std::vector<PostingRef> lists;
    for (TermId m : context) lists.push_back(part.predicate->ref(m));
    total += CountIntersection(lists);
  }
  return total;
}

bool ContextSearchEngine::MergeOnce() {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  std::shared_ptr<const LiveSet> live = SnapshotLive();

  // Size-tiered policy over ADJACENT sealed pairs (adjacency preserves the
  // contiguous global docid space): arm when enough sealed extras are
  // live, then fold the pair with the smallest combined size.
  uint64_t sealed = 0;
  for (const auto& es : live->extras) {
    if (es->index.sealed) ++sealed;
  }
  if (config_.merge_trigger_segments == 0 ||
      sealed < config_.merge_trigger_segments) {
    return false;
  }
  int64_t best = -1;
  uint64_t best_docs = UINT64_MAX;
  for (size_t i = 0; i + 1 < live->extras.size(); ++i) {
    const IndexSegment& a = live->extras[i]->index;
    const IndexSegment& b = live->extras[i + 1]->index;
    if (!a.sealed || !b.sealed) continue;
    uint64_t docs = static_cast<uint64_t>(a.num_docs) + b.num_docs;
    if (docs < best_docs) {
      best_docs = docs;
      best = static_cast<int64_t>(i);
    }
  }
  if (best < 0) return false;

  // The heavy work happens on immutable shared_ptr inputs; queries keep
  // serving from the old LiveSet until the swap below.
  const EngineSegment& a = *live->extras[static_cast<size_t>(best)];
  const EngineSegment& b = *live->extras[static_cast<size_t>(best) + 1];
  Result<IndexSegment> merged_index = MergeSegments(
      a.index, b.index, next_segment_id_++, config_.segment_size);
  if (!merged_index.ok()) return false;

  auto merged = std::make_shared<EngineSegment>();
  merged->index = std::move(merged_index).value();
  merged->index.sealed = true;
  merged->view_deltas.reserve(a.view_deltas.size());
  for (size_t v = 0; v < a.view_deltas.size(); ++v) {
    MaterializedView mv = a.view_deltas[v].Clone();
    mv.MergeFrom(b.view_deltas[v]);
    merged->view_deltas.push_back(std::move(mv));
  }
  if (config_.compressed_postings) {
    merged->index.content.Compact(/*block_size=*/0, config_.codec_policy);
    merged->index.predicate.Compact(/*block_size=*/0, config_.codec_policy);
    for (MaterializedView& v : merged->view_deltas) v.Compact();
  }

  auto next = std::make_shared<LiveSet>();
  next->base_docs = live->base_docs;
  next->total_docs = live->total_docs;
  for (size_t i = 0; i < live->extras.size(); ++i) {
    if (static_cast<int64_t>(i) == best) {
      next->extras.push_back(merged);
      ++i;  // skip the second input
    } else {
      next->extras.push_back(live->extras[i]);
    }
  }
  PublishLive(std::move(next));
  hot_.segment_merges->Increment();
  hot_.segment_merged_docs->Increment(best_docs);
  hot_.view_delta_merges->Increment(a.view_deltas.size());
  return true;
}

Status ContextSearchEngine::FlattenSegments() {
  AdaptiveExclusiveGuard adaptive_guard(adaptive_.get());
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  if (live->extras.empty()) return Status::OK();

  // Fold every extra's postings into the base, docid-ascending; one
  // compaction at the end reproduces the scratch-built block bytes.
  InvertedIndex content = std::move(content_index_);
  InvertedIndex predicate = std::move(predicate_index_);
  for (const auto& es : live->extras) {
    content = MergeIndexes(content, es->index.content, config_.segment_size);
    predicate =
        MergeIndexes(predicate, es->index.predicate, config_.segment_size);
    years_.insert(years_.end(), es->index.years.begin(),
                  es->index.years.end());
  }
  if (config_.compressed_postings) {
    content.Compact(/*block_size=*/0, config_.codec_policy);
    predicate.Compact(/*block_size=*/0, config_.codec_policy);
  }
  content_index_ = std::move(content);
  predicate_index_ = std::move(predicate);
  // Physically merge the view deltas into the base catalog (integer sums
  // — bit-identical to a scratch BuildAll over the union).
  if (catalog_.size() > 0) {
    std::vector<MaterializedView> views = catalog_.Release();
    for (const auto& es : live->extras) {
      for (size_t v = 0; v < views.size(); ++v) {
        views[v].MergeFrom(es->view_deltas[v]);
      }
      hot_.view_delta_merges->Increment(views.size());
    }
    for (MaterializedView& v : views) catalog_.Add(std::move(v));
    if (config_.compressed_postings) catalog_.CompactAll();
  }

  // The derived artifacts cover the whole collection again.
  base_docs_ = content_index_.num_docs();
  param_table_ = std::make_unique<DocParamTable>(
      DocParamTable::Build(content_index_, tracked_));
  estimator_ = std::make_unique<ViewSizeEstimator>(
      &corpus_, corpus_.config.seed ^ 0x5EED, config_.estimator_sample);
  atm_ = std::make_unique<AtmMapper>(&corpus_, &content_index_,
                                     &predicate_index_);
  if (stats_cache_ != nullptr) stats_cache_->Clear();
  // Segment id 0 now names more documents, and the extras are gone.
  if (context_set_cache_ != nullptr) context_set_cache_->Clear();

  auto next = std::make_shared<LiveSet>();
  next->base_docs = base_docs_;
  next->total_docs = base_docs_;
  PublishLive(std::move(next));
  return Status::OK();
}

Status ContextSearchEngine::InstallSealedSegment(IndexSegment segment) {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  if (segment.base != live->total_docs) {
    return Status::InvalidArgument(
        "segment covers [" + std::to_string(segment.base) + ", ...) but the "
        "live set ends at " + std::to_string(live->total_docs));
  }
  uint64_t end = static_cast<uint64_t>(segment.base) + segment.num_docs;
  if (segment.num_docs == 0 || end > corpus_.docs.size()) {
    return Status::InvalidArgument("segment range exceeds the corpus");
  }
  if (segment.content.num_docs() != segment.num_docs ||
      segment.predicate.num_docs() != segment.num_docs ||
      segment.years.size() != segment.num_docs) {
    return Status::DataLoss("segment internals disagree with its header");
  }
  auto es = std::make_shared<EngineSegment>();
  es->index = std::move(segment);
  es->index.sealed = true;
  // Deltas always align with the CURRENT catalog, so they are rebuilt from
  // the corpus slice rather than persisted.
  DocId first = es->index.base;
  if (es->index.content.compressed()) {
    // DocParamTable walks uncompressed lists; decode once via a scratch
    // rebuild of the content index for the delta pass only.
    IndexBuilder content_builder(config_.segment_size);
    for (DocId i = first; i < first + es->index.num_docs; ++i) {
      CSR_RETURN_NOT_OK(content_builder.AddDocument(
          i - first, corpus_.docs[i].ContentTokens()));
    }
    InvertedIndex plain = content_builder.Build();
    es->view_deltas =
        BuildViewDeltasLocked(plain, first, first + es->index.num_docs);
  } else {
    es->view_deltas = BuildViewDeltasLocked(es->index.content, first,
                                            first + es->index.num_docs);
  }
  if (config_.compressed_postings) {
    for (MaterializedView& v : es->view_deltas) v.Compact();
  }
  next_segment_id_ = std::max(next_segment_id_, es->index.id + 1);

  auto next = std::make_shared<LiveSet>(*live);
  next->extras.push_back(std::move(es));
  next->total_docs = end;
  PublishLive(std::move(next));
  return Status::OK();
}

Status ContextSearchEngine::RebuildSegmentsFromCorpus(DocId first) {
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  std::shared_ptr<const LiveSet> live = SnapshotLive();
  if (first != live->total_docs) {
    return Status::InvalidArgument(
        "rebuild must start at the live end (" +
        std::to_string(live->total_docs) + "), got " + std::to_string(first));
  }
  if (first >= corpus_.docs.size()) return Status::OK();
  return ResegmentTailLocked(first);
}

void ContextSearchEngine::StartBackgroundMerge() {
  if (merger_ != nullptr) return;
  merger_ = std::make_unique<SegmentMerger>(this, config_.merge_interval_ms);
}

void ContextSearchEngine::StopBackgroundMerge() {
  if (merger_ == nullptr) return;
  merger_->Stop();
  merger_.reset();
}

Status ContextSearchEngine::SelectAndMaterializeViews() {
  // Invariant: base views cover exactly the base documents. Fold any live
  // extras into the base before selection sees the collection.
  CSR_RETURN_NOT_OK(FlattenSegments());
  TransactionDb db = TransactionDb::FromCorpus(corpus_);
  Kag kag = Kag::Build(db, context_threshold_, context_threshold_);
  SupportFn support = MakeIndexSupportFn(predicate_index_);

  HybridConfig hconfig;
  hconfig.thresholds.context_threshold = context_threshold_;
  hconfig.thresholds.view_size_threshold = config_.view_size_threshold;
  selection_ = SelectViewsHybrid(db, kag, *estimator_, support, hconfig);

  // Deduplicate identical keyword sets produced by different branches.
  std::unordered_set<uint64_t> seen;
  std::vector<ViewDefinition> defs;
  for (ViewDefinition& v : selection_.views) {
    uint64_t h = HashTermIds(v.keyword_columns);
    if (seen.insert(h).second) defs.push_back(std::move(v));
  }
  selection_.views.clear();
  return MaterializeViews(std::move(defs));
}

Status ContextSearchEngine::MaterializeViews(std::vector<ViewDefinition> defs) {
  AdaptiveExclusiveGuard adaptive_guard(adaptive_.get());
  CSR_RETURN_NOT_OK(FlattenSegments());
  ViewBuilder builder(&corpus_, param_table_.get(), ViewParams(),
                      static_cast<uint32_t>(tracked_.size()));
  std::vector<MaterializedView> views = builder.BuildAll(defs);
  catalog_ = ViewCatalog();
  for (MaterializedView& v : views) catalog_.Add(std::move(v));
  if (config_.compressed_postings) catalog_.CompactAll();
  return Status::OK();
}

Status ContextSearchEngine::AppendDocuments(std::vector<Document> docs) {
  if (docs.empty()) return Status::OK();

  // The append path touches only the TAIL of the collection: the base
  // index, base views, param table, and estimator are untouched, so the
  // cost of an append is proportional to the write buffer, not the corpus.
  // Queries keep serving from their LiveSet snapshot throughout; the new
  // documents become visible atomically at the PublishLive inside
  // ResegmentTailLocked.
  std::lock_guard<std::mutex> ingest(ingest_mu_);
  std::shared_ptr<const LiveSet> live = SnapshotLive();

  DocId next = static_cast<DocId>(corpus_.docs.size());
  uint64_t appended = docs.size();
  for (Document& d : docs) {
    d.id = next++;
    std::sort(d.annotations.begin(), d.annotations.end());
    d.annotations.erase(
        std::unique(d.annotations.begin(), d.annotations.end()),
        d.annotations.end());
    corpus_.docs.push_back(std::move(d));
  }

  // Rebuild from the start of the unsealed buffer (if any) so the buffer
  // absorbs the batch; everything below it is sealed and untouched.
  DocId tail_first = static_cast<DocId>(live->total_docs);
  if (!live->extras.empty() && !live->extras.back()->index.sealed) {
    tail_first = live->extras.back()->index.base;
  }
  CSR_RETURN_NOT_OK(ResegmentTailLocked(tail_first));
  hot_.ingest_docs->Increment(appended);
  hot_.ingest_batches->Increment();
  return Status::OK();
}

Status ContextSearchEngine::InstallCatalog(
    ViewCatalog catalog, const std::vector<TermId>& tracked_terms) {
  AdaptiveExclusiveGuard adaptive_guard(adaptive_.get());
  if (tracked_terms != tracked_.terms()) {
    // The snapshot's tracked set was FROZEN at its original Build; this
    // engine recomputed one over today's collection (which may have grown
    // through appends since that build), so honest drift is expected.
    // Adopt the persisted set — views are slot-aligned to it — as long as
    // it is something this config could have produced; refuse only what
    // no build under this config could have (the changed-config guard).
    if (tracked_terms.size() > config_.tracked_cap) {
      return Status::FailedPrecondition(
          "snapshot tracks " + std::to_string(tracked_terms.size()) +
          " keywords but EngineConfig::tracked_cap is " +
          std::to_string(config_.tracked_cap) +
          "; was the EngineConfig changed since the snapshot was taken?");
    }
    for (size_t i = 0; i < tracked_terms.size(); ++i) {
      bool ordered = i == 0 || tracked_terms[i - 1] < tracked_terms[i];
      if (!ordered || tracked_terms[i] >= content_index_.num_terms()) {
        return Status::FailedPrecondition(
            "snapshot tracked keywords are not a sorted set over this "
            "engine's vocabulary");
      }
    }
    tracked_ = TrackedKeywords::FromTerms(tracked_terms);
    param_table_ = std::make_unique<DocParamTable>(
        DocParamTable::Build(content_index_, tracked_));
  }
  degradation_.views_quarantined += catalog.quarantined().size();
  catalog_ = std::move(catalog);
  if (config_.compressed_postings) catalog_.CompactAll();
  return Status::OK();
}

ViewParamOptions ContextSearchEngine::ViewParams() const {
  return ViewParamOptions{/*track_df=*/true, config_.track_tc,
                          config_.view_year_bucket};
}

CollectionStats ContextSearchEngine::FoldGlobalStats(
    std::span<const SearchPart> parts,
    std::span<const TermId> keywords) const {
  CollectionStats total;
  total.df.assign(keywords.size(), 0);
  total.tc.assign(keywords.size(), 0);
  for (const SearchPart& part : parts) {
    total.Add(GlobalCollectionStats(*part.content, keywords));
  }
  return total;
}

std::string_view ContextSearchEngine::GateViewRead(
    SearchMetrics& metrics) const {
  // -- Overload resilience on the view path (DESIGN.md §13) -------------
  // The view read is a dependency that can fail transiently (injection
  // point kViewRead). A circuit breaker gates it: while open, queries
  // short-circuit straight to the straightforward plan without touching
  // the view. Because views are exact aggregates, both plans produce
  // bit-identical scores — a short-circuit is a plan choice, not a
  // degradation.
  if (!view_breaker_.Allow()) return "fallback: view circuit breaker open";
  // Transient fault on the read itself: retry within the process-wide
  // budget (a storm drains the bucket and fails fast into the fallback
  // instead of multiplying load), then report the outcome to the breaker.
  bool view_ok = !FaultHit(FaultPoint::kViewRead);
  if (!view_ok) {
    degradation_.view_read_faults++;
    DecorrelatedJitterBackoff backoff(config_.view_retry,
                                      /*seed=*/0xB0FF5EEDULL);
    for (uint32_t attempt = 1; attempt < config_.view_retry.max_attempts;
         ++attempt) {
      if (!RetryBudget::Global().TryWithdraw()) break;
      SleepForMillis(backoff.NextDelayMs());
      view_ok = !FaultHit(FaultPoint::kViewRead);
      if (view_ok) break;
      degradation_.view_read_faults++;
    }
  }
  if (!view_ok) {
    view_breaker_.OnFailure();
    metrics.degraded = true;
    metrics.degraded_reason =
        "transient view-read fault persisted through retry; answered by "
        "the straightforward plan";
    return "fallback: transient view-read fault";
  }
  view_breaker_.OnSuccess();
  RetryBudget::Global().Deposit();
  return {};
}

CollectionStats ContextSearchEngine::ComputeContextStats(
    const ContextQuery& query, const QueryStats& qstats, bool with_views,
    SearchMetrics& metrics, ScanGuard* guard,
    std::span<const SearchPart> parts,
    std::vector<std::shared_ptr<const ContextSet>>& sets,
    TraceContext tctx) const {
  const bool need_tc = ranking_->NeedsTermCounts();
  sets.assign(parts.size(), nullptr);

  // -- Resolve the smallest view covering P, once ------------------------
  // The offline catalog is the paper's cost-based choice; the online
  // adaptive cache (DESIGN.md §17) fills the gaps offline selection could
  // not anticipate. A query takes one immutable adaptive version snapshot,
  // so a concurrent install/evict republish is never observed torn. Both
  // sources carry the same exact integer aggregates, so every plan below
  // is bit-identical to the straightforward one.
  const MaterializedView* view = nullptr;  // the chosen source's base view
  int32_t view_idx = -1;
  std::shared_ptr<const AdaptiveCatalogVersion> aversion;
  std::shared_ptr<const AdaptiveView> av;
  std::string_view reason = "views disabled for this mode";
  bool record_miss = false;
  if (with_views) {
    auto answerable = [&](const MaterializedView& v) {
      return !query.years.active() || v.RangeAnswerable(query.years);
    };
    view_idx = catalog_.FindBestIndex(query.context);
    const MaterializedView* offline =
        view_idx < 0 ? nullptr : &catalog_.view(static_cast<size_t>(view_idx));
    if (offline != nullptr && answerable(*offline)) {
      view = offline;
    } else if (adaptive_ != nullptr) {
      aversion = adaptive_->Snapshot();
      av = aversion->FindBest(query.context);
      if (av != nullptr && av->base != nullptr && answerable(*av->base)) {
        view = av->base.get();
      }
    }
    if (view != nullptr) {
      reason = GateViewRead(metrics);
      if (!reason.empty()) view = nullptr;
    } else if (offline != nullptr) {
      reason = "fallback: year range not bucket-aligned";
    } else {
      reason = "fallback: no usable view";
      // Attribute the miss when the covering view was dropped at snapshot
      // load: the fallback is then a degradation, not a planning choice.
      const QuarantinedView* q =
          catalog_.FindQuarantinedCovering(query.context);
      if (q != nullptr) {
        metrics.degraded = true;
        metrics.degraded_reason =
            "view for this context was quarantined at load (" + q->reason +
            "); answered by the straightforward plan";
        reason = "fallback: covering view quarantined";
        degradation_.quarantine_fallbacks++;
      }
      // Fund the adaptive estimator with the cost the miss actually pays.
      // Year-restricted queries are excluded: whether a future view could
      // answer them depends on bucket alignment, so their misses would
      // inflate scores for contexts the cache might never serve.
      record_miss = adaptive_ != nullptr && !query.years.active();
    }
    if (view == nullptr) metrics.fell_back_to_straightforward = true;
  }
  if (view == nullptr) av = nullptr;  // `av` now marks an adaptive plan

  // One view per part: the base view or that part's delta. Offline deltas
  // sit at the base view's catalog index; adaptive deltas are keyed by
  // segment id (never reused with different content), with base/docid
  // extents cross-checked. nullptr marks a part appended or merged after
  // an adaptive build: the straightforward plan answers it, so a stale
  // resident is never wrong, only slower.
  auto part_view = [&](const SearchPart& part) -> const MaterializedView* {
    if (view == nullptr) return nullptr;
    if (av == nullptr) {
      return part.view_deltas == nullptr
                 ? view
                 : &(*part.view_deltas)[static_cast<size_t>(view_idx)];
    }
    uint32_t part_docs = static_cast<uint32_t>(part.content->num_docs());
    if (part.view_deltas == nullptr) {
      return part.base == 0 && part_docs == av->base_docs ? view : nullptr;
    }
    return av->DeltaFor(part.segment_id, part.base, part_docs);
  };

  // -- Fold every part in one loop ---------------------------------------
  // The statistics of Section 3 are integer sums (counts, length sums)
  // over the matching documents, and the parts partition the docid space,
  // so folding the per-part results reproduces the flattened-index numbers
  // bit for bit. A tripped guard stops the fold — the result is partial
  // either way, and the caller inspects the guard before using it.
  SpanGuard span(tctx, view == nullptr ? "plan:straightforward"
                       : av != nullptr ? "plan:adaptive_view"
                                       : "plan:view");
  CollectionStats stats;
  stats.df.assign(qstats.keywords.size(), 0);
  if (need_tc) stats.tc.assign(qstats.keywords.size(), 0);
  std::vector<bool> covered;
  // The view-served parts, with the D_P their untracked keywords join.
  std::vector<SearchPart> view_served;
  std::vector<std::shared_ptr<const ContextSet>> view_sets;
  uint64_t delta_folds = 0;
  uint64_t stale_parts = 0;
  // How the parts that needed D_P had it, for the plan span: the cache, a
  // build, or (a view-served part that may not build) neither.
  uint32_t builds = 0;
  uint32_t chains = 0;
  // Only the view plan's query mode uses the context-set cache: the
  // kContextStraightforward series is the paper's uncached baseline.
  ContextSetCache* set_cache = with_views ? context_set_cache_.get() : nullptr;
  auto lookup = [&](const SearchPart& part) {
    std::pair<std::optional<TermIdSet>, std::shared_ptr<const ContextSet>> r;
    if (set_cache != nullptr) {
      r.first = ContextSetCache::Key(part, query.context, query.years);
      if (r.first) r.second = set_cache->Get(*r.first);
    }
    if (r.second != nullptr) ++metrics.context_set_hits;
    return r;
  };
  // A view-served part builds D_P only for the cache, never for its own
  // answer: the build is driven by the predicate lists (up to |D_P|
  // ticks) where the chain is driven by the short L_w. So it builds only
  // when no deadline or posting budget bounds the query; a bounded query
  // could trip on the build where the chain fits, and trip again on every
  // rerun, since a tripped set is never stored.
  const bool may_build = guard == nullptr || !guard->bounded();
  WallTimer fold_timer;
  for (size_t p = 0; p < parts.size(); ++p) {
    const SearchPart& part = parts[p];
    if (const MaterializedView* pv = part_view(part); pv != nullptr) {
      MaterializedView::StatsResult vr =
          pv->ComputeStats(query.context, qstats.keywords, tracked_,
                           &metrics.cost, query.years);
      // Deltas share the base view's definition (columns, tracked slots,
      // year buckets), so coverage is the same for every part.
      if (covered.empty()) covered = std::move(vr.covered);
      stats.Add({vr.cardinality, vr.total_length, std::move(vr.df),
                 std::move(vr.tc)});
      if (part.view_deltas != nullptr) ++delta_folds;
      view_served.push_back(part);
      std::shared_ptr<const ContextSet>& set = view_sets.emplace_back();
      // D_P serves only the keywords the view has no column for, so a
      // fully covered query never touches the cache.
      if (std::find(covered.begin(), covered.end(), false) == covered.end()) {
        continue;
      }
      auto [key, cached] = lookup(part);
      if (cached != nullptr) {
        set = std::move(cached);
      } else if (key && may_build) {
        SpanGuard cspan(span.ctx(), "intersect:context");
        auto built = std::make_shared<const ContextSet>(ContextSet::Build(
            *part.content, *part.predicate, query.context, &metrics.cost,
            part.years, query.years, guard));
        cspan.Attr("cardinality", static_cast<uint64_t>(built->Size()));
        if (!built->complete()) break;  // an injected fault tripped the guard
        set_cache->Put(*key, built);
        set = std::move(built);
        ++builds;
      } else {
        ++chains;
      }
      continue;
    }
    // The straightforward plan (Figure 3) for this part. Its D_P is kept
    // for retrieval (and the cache) unless a guard trip left it partial.
    if (view != nullptr) ++stale_parts;
    std::optional<SpanGuard> pspan;
    if (parts.size() > 1 && span) {
      pspan.emplace(span.ctx(), "segment:" + std::to_string(part.segment_id));
    }
    const TraceContext ptctx = pspan ? pspan->ctx() : span.ctx();
    auto [key, cached] = lookup(part);
    if (cached != nullptr) {
      stats.Add(ContextSetStats(*part.content, *cached, qstats.keywords,
                                need_tc, &metrics.cost, guard, ptctx));
      sets[p] = std::move(cached);
    } else {
      ContextSet set;
      stats.Add(StraightforwardCollectionStats(
          *part.content, *part.predicate, query.context, qstats.keywords,
          need_tc, &metrics.cost, part.years, query.years, guard, ptctx,
          &set));
      if (set.complete()) {
        sets[p] = std::make_shared<const ContextSet>(std::move(set));
        if (key) set_cache->Put(*key, sets[p]);
      }
      ++builds;
    }
    if (guard != nullptr && guard->tripped()) break;
  }
  if (record_miss && (guard == nullptr || !guard->tripped())) {
    adaptive_->RecordMiss(query.context, fold_timer.ElapsedMillis());
  }
  if (metrics.context_set_hits + builds + chains > 0) {
    span.Attr("context_set", chains > 0   ? "chain"
                             : builds > 0 ? "built"
                                          : "cached");
  }

  // Keywords without a parameter column (|L_w| < T_C) are computed at
  // query time over the view-served parts only (straightforward-served
  // parts already carry full per-keyword statistics). A part whose D_P is
  // at hand (cached, or just built for the cache) answers each by one
  // 2-way join with it; otherwise (the write segment, or a bounded query
  // that may not build) the short L_w drives an (m + 1)-way chain with the
  // predicate lists (Section 6.2). Retrieval on a view-served part still
  // joins its m predicate lists: the set stays out of `sets` (see
  // DESIGN.md §18 for the measurement behind that).
  metrics.keywords_uncovered_by_view = AddUncoveredKeywordStats(
      query, qstats, covered, view_served, view_sets, metrics.cost, guard,
      span.ctx(), stats);

  if (view == nullptr) {
    metrics.plan = "stats: straightforward (Figure 3): gamma over ";
    metrics.plan += std::to_string(query.context.size());
    metrics.plan += "-way context intersection + ";
    metrics.plan += std::to_string(qstats.keywords.size());
    metrics.plan += " per-keyword intersections";
    if (parts.size() > 1) {
      metrics.plan += " over " + std::to_string(parts.size()) + " segments";
    }
    if (with_views) {
      metrics.plan += " [";
      metrics.plan += reason;
      metrics.plan += "]";
    }
    span.Attr("reason", reason);
    return stats;
  }
  uint64_t tuples = av != nullptr ? av->NumTuples() : view->NumTuples();
  metrics.used_view = true;
  metrics.used_adaptive_view = av != nullptr;
  metrics.view_tuples_scanned = metrics.cost.view_tuples_scanned;
  metrics.plan = av != nullptr ? "stats: adaptive view scan over V_K (|K|="
                               : "stats: view scan over V_K (|K|=";
  metrics.plan += std::to_string(view->def().num_columns()) + ", " +
                  std::to_string(tuples) + " tuples";
  if (av != nullptr) metrics.plan += ", v" + std::to_string(aversion->version);
  metrics.plan += ")";
  if (delta_folds > 0) {
    metrics.plan += " + " + std::to_string(delta_folds) + " segment delta(s)";
  }
  if (stale_parts > 0) {
    metrics.plan += " + " + std::to_string(stale_parts) +
                    " stale segment(s) answered straightforwardly";
  }
  if (metrics.keywords_uncovered_by_view > 0) {
    metrics.plan += " + " +
                    std::to_string(metrics.keywords_uncovered_by_view) +
                    " query-time df intersection(s) for untracked keywords";
  }
  span.Attr("view_columns", static_cast<uint64_t>(view->def().num_columns()));
  span.Attr("view_tuples", tuples);
  span.Attr("view_tuples_scanned", metrics.view_tuples_scanned);
  if (delta_folds > 0) hot_.view_delta_folds->Increment(delta_folds);
  if (av != nullptr) {
    span.Attr("catalog_version", aversion->version);
    if (stale_parts > 0) adaptive_->NoteStalePartFallback(stale_parts);
    adaptive_->RecordHit(query.context);
  }
  return stats;
}

uint32_t ContextSearchEngine::AddUncoveredKeywordStats(
    const ContextQuery& query, const QueryStats& qstats,
    const std::vector<bool>& covered, std::span<const SearchPart> parts,
    std::span<const std::shared_ptr<const ContextSet>> sets,
    CostCounters& cost, ScanGuard* guard, TraceContext tctx,
    CollectionStats& stats) const {
  const bool need_tc = ranking_->NeedsTermCounts();
  uint32_t uncovered = 0;
  for (size_t i = 0; i < qstats.keywords.size(); ++i) {
    if (covered.empty() || covered[i]) continue;
    ++uncovered;
    const TermId w = qstats.keywords[i];
    SpanGuard kspan(tctx, "intersect:df");
    CostCounters before;
    if (kspan) before = cost;
    KeywordCounts total;
    uint64_t set_joins = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      const SearchPart& part = parts[p];
      KeywordCounts c;
      if (sets[p] != nullptr) {
        c = sets[p]->IntersectWith(part.content->ref(w, &cost), need_tc,
                                   guard);
        ++set_joins;
      } else {
        c = CountKeywordInContext(*part.content, *part.predicate,
                                  query.context, w, need_tc, &cost,
                                  part.years, query.years, guard);
      }
      total.df += c.df;
      total.tc += c.tc;
      if (guard != nullptr && guard->tripped()) break;
    }
    stats.df[i] += total.df;
    if (need_tc) stats.tc[i] += total.tc;
    if (kspan) {
      // Lists per join: L_w with the set, else L_w with the m predicates.
      const size_t lists =
          set_joins == parts.size() ? 2 : query.context.size() + 1;
      kspan.Attr("keyword", static_cast<uint64_t>(w));
      kspan.Attr("lists", static_cast<uint64_t>(lists));
      kspan.Attr("strategy", ConjunctionPlan(lists));
      kspan.Attr("context_set", set_joins);
      kspan.Attr("df", total.df);
      AttrIntersectionCostDelta(kspan.get(), cost, before);
    }
  }
  return uncovered;
}

namespace {

/// The typed failure for a tripped guard when degradation is disabled (or
/// impossible). Never kInternal: callers branch on the taxonomy.
Status TripStatus(const ScanGuard& guard) {
  switch (guard.trip()) {
    case ScanGuard::Trip::kDeadline:
      return Status::DeadlineExceeded("query " + guard.TripReason());
    case ScanGuard::Trip::kBudget:
      return Status::ResourceExhausted("query " + guard.TripReason());
    case ScanGuard::Trip::kFault:
      return Status::DataLoss("query aborted: " + guard.TripReason());
    case ScanGuard::Trip::kNone:
      break;
  }
  return Status::Internal("TripStatus on untripped guard");
}

}  // namespace

void ContextSearchEngine::RecordTrip(const ScanGuard& guard) const {
  switch (guard.trip()) {
    case ScanGuard::Trip::kDeadline:
      degradation_.deadline_hits++;
      break;
    case ScanGuard::Trip::kBudget:
      degradation_.budget_hits++;
      break;
    case ScanGuard::Trip::kFault:
      degradation_.fault_trips++;
      break;
    case ScanGuard::Trip::kNone:
      break;
  }
}

Result<std::unique_ptr<PreparedSearch>> ContextSearchEngine::BeginSearch(
    const ContextQuery& query, EvaluationMode mode, double elapsed_ms) const {
  const bool record = metrics_enabled();
  if (query.keywords.empty()) {
    if (record) RecordQueryMetrics(SearchMetrics{}, mode, /*failed=*/true);
    return Status::InvalidArgument("query has no keywords");
  }
  if (mode != EvaluationMode::kConventional && query.context.empty()) {
    if (record) RecordQueryMetrics(SearchMetrics{}, mode, /*failed=*/true);
    return Status::InvalidArgument(
        "context-sensitive evaluation requires a context specification");
  }
  if (!std::is_sorted(query.context.begin(), query.context.end())) {
    if (record) RecordQueryMetrics(SearchMetrics{}, mode, /*failed=*/true);
    return Status::InvalidArgument("context predicates must be sorted");
  }
  if (config_.deadline_ms > 0 && elapsed_ms >= config_.deadline_ms) {
    // The deadline expired before execution began (typically in the
    // executor queue). Shed the query instead of starting work it is
    // already too late for; the degradation ladder cannot salvage a query
    // that never ran.
    degradation_.deadline_hits++;
    if (record) RecordQueryMetrics(SearchMetrics{}, mode, /*failed=*/true);
    return Status::DeadlineExceeded(
        "query deadline of " + FormatMillis(config_.deadline_ms) +
        " ms consumed before execution (" + FormatMillis(elapsed_ms) +
        " ms elapsed in queue)");
  }

  // One guard spans every stage: the deadline clock covers the whole
  // query — including time spent in inter-stage queues — and the posting
  // budget is re-granted once when the plan degrades.
  auto ps = std::make_unique<PreparedSearch>(
      query, mode, config_.top_k, config_.deadline_ms,
      config_.posting_scan_budget, elapsed_ms);
  ps->record = record;
  // Trace sampling: every Nth query records a full span tree. The trace
  // clock starts here, so span times are relative to execution start; the
  // executor's queue waits are attributed as attributes, not span time.
  if (ShouldTrace()) {
    ps->trace = std::make_shared<QueryTrace>();
    ps->root = TraceContext{ps->trace.get(), ps->trace->root()};
    ps->trace->root()->Attr("mode", EvaluationModeName(mode));
    ps->trace->root()->Attr("keywords",
                            static_cast<uint64_t>(query.keywords.size()));
    ps->trace->root()->Attr("context_predicates",
                            static_cast<uint64_t>(query.context.size()));
    ps->trace->root()->Attr("queue_wait_ms", elapsed_ms);
    if (record) hot_.traces_sampled->Increment();
  }
  {
    SpanGuard parse(ps->root, "parse");
    ps->qstats = QueryStats::FromKeywords(ps->query.keywords);
    parse.Attr("unique_keywords",
               static_cast<uint64_t>(ps->qstats.keywords.size()));
  }

  // One LiveSet snapshot serves the whole query: concurrent appends,
  // seals, and merges publish NEW snapshots and never mutate this one, so
  // every stage sees a single frozen collection.
  ps->live = SnapshotLive();
  ps->parts = MakeParts(*ps->live);
  if (ps->trace != nullptr && ps->parts.size() > 1) {
    ps->trace->root()->Attr("segments",
                            static_cast<uint64_t>(ps->parts.size()));
  }
  return ps;
}

Status ContextSearchEngine::SearchStats(PreparedSearch& ps) const {
  SearchResult& result = ps.result;
  // Phase 1: collection statistics.
  WallTimer stats_timer;
  {
    SpanGuard stats_span(ps.root, "stats");
    switch (ps.mode) {
      case EvaluationMode::kConventional:
        result.stats = FoldGlobalStats(ps.parts, ps.qstats.keywords);
        result.metrics.plan =
            "stats: precomputed global statistics (Qt = Qk ∪ P)";
        stats_span.Attr("plan", "conventional-global");
        break;
      case EvaluationMode::kContextStraightforward:
      case EvaluationMode::kContextWithViews: {
        bool with_views = ps.mode == EvaluationMode::kContextWithViews;
        std::optional<CollectionStats> cached;
        {
          SpanGuard lookup(stats_span.ctx(), "stats_cache_lookup");
          lookup.Attr("enabled", stats_cache_ != nullptr);
          // The snapshot's epoch is folded into the cache key, so an
          // entry cached before an append can never answer a query that
          // sees the appended documents (and vice versa).
          cached = stats_cache_ != nullptr
                       ? stats_cache_->Get(ps.query.context,
                                           ps.qstats.keywords, ps.query.years,
                                           ps.live->epoch)
                       : std::nullopt;
          lookup.Attr("hit", cached.has_value());
        }
        if (cached.has_value()) {
          result.stats = *std::move(cached);
          result.metrics.stats_cache_hit = true;
          result.metrics.plan = "stats: LRU cache hit";
          stats_span.Attr("plan", "cache-hit");
        } else {
          result.stats = ComputeContextStats(
              ps.query, ps.qstats, with_views, result.metrics, &ps.guard,
              ps.parts, ps.context_sets, stats_span.ctx());
          if (ps.guard.tripped()) {
            // Degradation rung 2: context statistics are partial, therefore
            // unusable — rank with the (precomputed, exact) global
            // statistics instead of failing or serving garbage.
            RecordTrip(ps.guard);
            if (ps.trace != nullptr) {
              ps.trace->Event(stats_span.get(), "event:degraded")
                  ->Attr("reason", ps.guard.TripReason());
            }
            if (!config_.degrade_gracefully) {
              if (ps.record) {
                RecordQueryMetrics(result.metrics, ps.mode, true);
              }
              return TripStatus(ps.guard);
            }
            result.stats = FoldGlobalStats(ps.parts, ps.qstats.keywords);
            result.metrics.degraded = true;
            result.metrics.degraded_reason =
                "context statistics abandoned (" + ps.guard.TripReason() +
                "); ranked with global collection statistics";
            result.metrics.plan += " -> degraded: global statistics";
            ps.guard.Reprieve();
          } else if (stats_cache_ != nullptr) {
            // Only exact statistics enter the cache.
            stats_cache_->Put(ps.query.context, ps.qstats.keywords,
                              ps.query.years, result.stats, ps.live->epoch);
          }
        }
        break;
      }
    }
  }
  result.metrics.stats_ms = stats_timer.ElapsedMillis();
  return Status::OK();
}

void ContextSearchEngine::ScorePending(PreparedSearch& ps) const {
  if (ps.pending.empty()) return;
  const size_t k = ps.qstats.keywords.size();
  DocStats dstats;
  dstats.tf.resize(k);
  size_t row = 0;
  for (const PreparedSearch::Match& m : ps.pending) {
    dstats.doc = m.doc;
    dstats.length = m.length;
    for (size_t i = 0; i < k; ++i) dstats.tf[i] = ps.pending_tfs[row + i];
    ps.collector.Offer(dstats.doc,
                       ranking_->Score(ps.qstats, dstats, ps.result.stats));
    row += k;
  }
  ps.pending.clear();
  ps.pending_tfs.clear();
}

Status ContextSearchEngine::SearchIntersect(PreparedSearch& ps) const {
  SearchResult& result = ps.result;
  // Phase 2: retrieval. The unranked result is the conjunction of all
  // keyword and predicate lists, run by the conjunction engine shortest
  // list first (identical across modes — only the statistics differ).
  // Survivors arrive a window at a time in docid order; their keyword tfs
  // are read then (only blocks holding a survivor decode tfs), and the
  // matches are scored in chunks (the score stage drains the final
  // chunk), so memory stays bounded. A guard trip leaves a docid prefix
  // of the answer (degradation rung 3).
  constexpr size_t kScoreChunk = 4096;
  WallTimer retrieval_timer;
  SpanGuard retrieval_span(ps.root, "retrieval");

  // Per-part lists: a keyword missing from one segment's dictionary only
  // rules that segment out. Parts are iterated in ascending docid order
  // through ONE shared collector, so ties resolve exactly as they would
  // over a flattened index. A part whose D_P the straightforward plan built
  // or took from the context-set cache joins the keyword lists with that
  // set (already year-filtered) instead of re-joining its m predicate
  // lists.
  std::vector<std::pair<const SearchPart*, std::vector<PostingRef>>> ready;
  CostCounters* cost = &result.metrics.cost;
  for (size_t p = 0; p < ps.parts.size(); ++p) {
    const SearchPart& part = ps.parts[p];
    const ContextSet* set =
        p < ps.context_sets.size() ? ps.context_sets[p].get() : nullptr;
    std::vector<PostingRef> lists;
    for (TermId w : ps.qstats.keywords) {
      lists.push_back(part.content->ref(w, cost));
    }
    if (set != nullptr) {
      lists.push_back(set->ref(cost));
    } else {
      for (TermId m : ps.query.context) {
        lists.push_back(part.predicate->ref(m, cost));
      }
    }
    if (std::any_of(lists.begin(), lists.end(),
                    [](const PostingRef& l) { return l.size() == 0; })) {
      continue;
    }
    ready.emplace_back(&part, std::move(lists));
    if (set != nullptr) ++ps.set_parts;
  }
  ps.joined_parts = ready.size();

  if (!ready.empty()) {
    SpanGuard ispan(retrieval_span.ctx(), "intersect:retrieval");
    CostCounters before;
    if (ispan) before = result.metrics.cost;
    const size_t k = ps.qstats.keywords.size();
    if (ispan) {
      ispan.Attr("lists", static_cast<uint64_t>(ready[0].second.size()));
      ispan.Attr("strategy", ConjunctionPlan(ready[0].second.size()));
      ispan.Attr("scoring", ranking_->name());
      ispan.Attr("top_k", static_cast<uint64_t>(config_.top_k));
      ispan.Attr("context_set", static_cast<uint64_t>(ps.set_parts));
      if (ready.size() > 1) {
        ispan.Attr("segments", static_cast<uint64_t>(ready.size()));
      }
    }
    std::vector<DocId> docs;
    for (auto& [part, lists] : ready) {
      Conjunction conj(lists, &ps.guard);
      while (conj.Next(docs)) {
        if (ps.query.years.active()) {
          std::erase_if(docs, [&, part = part](DocId d) {
            return !ps.query.years.Contains(part->years[d]);
          });
        }
        result.result_count += docs.size();
        const size_t row = ps.pending_tfs.size();
        ps.pending_tfs.resize(row + docs.size() * k);
        for (size_t i = 0; i < k; ++i) {
          conj.Tfs(i, docs, ps.pending_tfs.data() + row + i, k);
        }
        for (DocId d : docs) {
          ps.pending.push_back(PreparedSearch::Match{
              part->base + d, part->content->doc_length(d)});
        }
        if (ps.pending.size() >= kScoreChunk) ScorePending(ps);
        docs.clear();
      }
      if (conj.aborted()) {
        ps.retrieval_aborted = true;
        break;
      }
    }
    if (ispan) {
      ispan.Attr("docs_scored", result.result_count);
      ispan.Attr("aborted", ps.retrieval_aborted);
      AttrIntersectionCostDelta(ispan.get(), result.metrics.cost, before);
    }
  }

  if (ps.retrieval_aborted) {
    // Degradation rung 3: partial top-k over the documents seen so far.
    RecordTrip(ps.guard);
    if (ps.trace != nullptr) {
      ps.trace->Event(retrieval_span.get(), "event:degraded")
          ->Attr("reason", ps.guard.TripReason());
    }
    if (!config_.degrade_gracefully || result.result_count == 0) {
      // With degradation off, fail typed. With nothing salvaged, also fail
      // typed — an empty "success" would be indistinguishable from a real
      // empty result.
      if (ps.record) RecordQueryMetrics(result.metrics, ps.mode, true);
      return TripStatus(ps.guard);
    }
    result.metrics.degraded = true;
    if (!result.metrics.degraded_reason.empty()) {
      result.metrics.degraded_reason += "; ";
    }
    result.metrics.degraded_reason +=
        "retrieval stopped early (" + ps.guard.TripReason() +
        "); top-k ranks the " + std::to_string(result.result_count) +
        " documents matched before the stop";
  }
  retrieval_span.End();
  result.metrics.retrieval_ms += retrieval_timer.ElapsedMillis();
  return Status::OK();
}

Result<SearchResult> ContextSearchEngine::FinishSearch(
    PreparedSearch& ps) const {
  SearchResult& result = ps.result;
  WallTimer score_timer;
  ScorePending(ps);
  result.top_docs = ps.collector.Take();
  if (result.metrics.degraded) degradation_.degraded_queries++;

  result.metrics.retrieval_ms += score_timer.ElapsedMillis();
  result.metrics.total_ms = ps.total_timer.ElapsedMillis();
  // Parts whose D_P the stats phase kept join k + 1 lists; the others
  // (view hits, stats-cache hits, conventional mode) join k + m.
  const size_t k = ps.qstats.keywords.size();
  const std::string with_lists =
      std::to_string(k + ps.query.context.size()) + "-way conjunction";
  result.metrics.plan += "; retrieval: ";
  if (ps.set_parts == 0) {
    result.metrics.plan += with_lists;
  } else {
    result.metrics.plan +=
        std::to_string(k + 1) + "-way conjunction with the context set";
    if (ps.set_parts < ps.joined_parts) {
      result.metrics.plan += " on " + std::to_string(ps.set_parts) + " of " +
                             std::to_string(ps.joined_parts) +
                             " parts, else " + with_lists;
    }
  }
  result.metrics.plan +=
      ", most selective first, top-" + std::to_string(config_.top_k);
  if (ps.retrieval_aborted) result.metrics.plan += " (partial)";
  if (ps.record) RecordQueryMetrics(result.metrics, ps.mode, /*failed=*/false);
  if (ps.trace != nullptr) {
    ps.trace->root()->Attr("degraded", result.metrics.degraded);
    ps.trace->Finish();
    result.trace = std::move(ps.trace);
  }
  return std::move(result);
}

void ContextSearchEngine::NoteStageWait(PreparedSearch& ps,
                                        std::string_view stage,
                                        double wait_ms) const {
  ps.guard.AddQueueWait(wait_ms);
  if (ps.trace != nullptr) {
    ps.trace->Event(ps.root.parent, "stage:" + std::string(stage))
        ->Attr("queue_wait_ms", wait_ms);
  }
}

Result<SearchResult> ContextSearchEngine::Search(const ContextQuery& query,
                                                 EvaluationMode mode,
                                                 double elapsed_ms) const {
  // Exactly the staged pipeline's sequence, run inline — pipelined and
  // sequential execution are bit-identical by construction.
  Result<std::unique_ptr<PreparedSearch>> prep =
      BeginSearch(query, mode, elapsed_ms);
  if (!prep.ok()) return prep.status();
  PreparedSearch& ps = **prep;
  if (Status s = SearchStats(ps); !s.ok()) return s;
  if (Status s = SearchIntersect(ps); !s.ok()) return s;
  return FinishSearch(ps);
}

}  // namespace csr
