#ifndef CSR_ENGINE_ENGINE_H_
#define CSR_ENGINE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/atm.h"
#include "corpus/generator.h"
#include "engine/context_set_cache.h"
#include "engine/query.h"
#include "engine/segments.h"
#include "engine/top_k.h"
#include "index/inverted_index.h"
#include "index/scan_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ranking/ranking_function.h"
#include "engine/stats_cache.h"
#include "selection/adaptive.h"
#include "selection/hybrid.h"
#include "stats/collector.h"
#include "stats/context_set.h"
#include "util/result.h"
#include "util/retry.h"
#include "views/view_builder.h"
#include "views/view_catalog.h"

namespace csr {

class SegmentMerger;

/// Engine configuration. Thresholds follow Section 6.2: T_C defaults to 1%
/// of the collection and T_V to 4096 tuples.
struct EngineConfig {
  /// Ranked results returned per query.
  uint32_t top_k = 20;

  /// Ranking function name (see MakeRankingFunction).
  std::string ranking = "pivoted";

  /// Skip-pointer segment size M0.
  uint32_t segment_size = 128;

  /// Serve postings from the FOR/varint block-compressed representation.
  /// Build() compacts both indexes before any query runs; snapshots then
  /// persist the compressed bytes directly. Off reproduces the uncompressed
  /// serving path (the differential tests prove identical results).
  bool compressed_postings = true;

  /// How Compact() picks each block's representation. kAuto sizes varint,
  /// FOR, and bitmap per block and keeps the smallest; kBitmapPreferred
  /// biases dense blocks toward the bitmap container (fast word-wise AND)
  /// whenever it does not regress memory past the uncompressed baseline.
  /// The forced policies exist for ablation benches and differential
  /// tests.
  CodecPolicy codec_policy = CodecPolicy::kAuto;

  /// T_C as a fraction of |D|.
  double context_threshold_fraction = 0.01;

  /// T_V in view tuples.
  uint64_t view_size_threshold = 4096;

  /// Cap on tracked keywords (df-parameter columns per view). The paper's
  /// PubMed run tracks 910 keywords.
  uint32_t tracked_cap = 1024;

  /// Documents sampled by the view-size estimator.
  uint32_t estimator_sample = 20000;

  /// Store tc parameter columns too (needed by language-model ranking).
  bool track_tc = false;

  /// Year-bucket size for the views' time dimension (Section 7 extension);
  /// 0 disables it. With a bucket size of e.g. 10, year ranges aligned to
  /// decades are answerable from views; other ranges fall back to the
  /// straightforward plan.
  uint16_t view_year_bucket = 0;

  /// Capacity of the LRU collection-statistics cache (entries). 0 disables
  /// caching. Context-sensitive workloads revisit contexts heavily, so a
  /// small cache removes most statistics recomputation; benches keep it
  /// off to measure the uncached paths.
  size_t stats_cache_capacity = 0;

  /// Byte budget of the cross-query context-set cache (DESIGN.md §18):
  /// complete D_P sets of repeated contexts, shared by pointer, serving the
  /// view plan's untracked-keyword df and the straightforward-served parts
  /// of kContextWithViews (statistics and retrieval). 0 disables it.
  /// kContextStraightforward never uses it: that mode is the paper's
  /// uncached baseline.
  uint64_t context_set_cache_bytes = 8ull << 20;

  /// Per-query wall-clock deadline in milliseconds; 0 disables it. A
  /// pathological context query can otherwise scan postings unboundedly;
  /// when the deadline expires mid-plan the query degrades (see
  /// `degrade_gracefully`) instead of running away.
  double deadline_ms = 0.0;

  /// Per-query posting-scan budget (conjunction advances); 0 disables it.
  /// The degraded plan gets one fresh budget, so a query scans at most
  /// twice this many postings end to end.
  uint64_t posting_scan_budget = 0;

  /// What exhaustion does. true (default): the plan degrades — context
  /// statistics fall back to global statistics, retrieval returns the
  /// partial top-k collected so far — and the result carries
  /// SearchMetrics::degraded with a reason. false: Search fails fast with
  /// a typed status (kDeadlineExceeded / kResourceExhausted / kDataLoss).
  bool degrade_gracefully = true;

  /// Master switch for the metrics-registry hot-path updates (counters and
  /// latency histograms recorded by every Search). On by default — the
  /// cost is a handful of relaxed atomic adds per query, gated by
  /// bench_obs_overhead to within 5% of the un-instrumented path. Off
  /// exists for that bench's A/B baseline; the registry itself (and the
  /// legacy-counter sample callbacks) stays queryable either way.
  bool metrics_enabled = true;

  /// Fraction of queries that record a full QueryTrace span tree into
  /// SearchResult::trace (0 disables tracing, 1 traces everything).
  /// Implemented as trace-every-Nth with N = round(1/rate), so sampling
  /// is deterministic and costs one relaxed counter increment per query.
  double trace_sample_rate = 0.0;

  /// Retry policy for transient materialized-view read faults (injection
  /// point kViewRead). Retries draw on the process-wide RetryBudget
  /// (util/retry.h), so a correlated fault storm drains one shared bucket
  /// and degrades into fallbacks instead of amplifying itself.
  RetryPolicy view_retry{/*max_attempts=*/2, /*base_ms=*/0.05,
                         /*cap_ms=*/1.0};

  /// Circuit breaker guarding the view read path: after failure_threshold
  /// consecutive unsalvageable view-read faults, Search stops consulting
  /// views and serves the straightforward plan (identical scores, higher
  /// cost) until a half-open probe succeeds.
  CircuitBreakerConfig view_breaker;

  // -- Live ingestion (LSM segments, DESIGN.md §14) ----------------------

  /// Documents the in-memory write segment accepts before it seals into an
  /// immutable (block-compressed, when compressed_postings) segment. 0
  /// means "never seal automatically" — everything appended stays in one
  /// growing buffer segment.
  uint32_t mem_segment_max_docs = 4096;

  /// Sealed segments beyond the base that arm the merge policy: MergeOnce
  /// (and the background merger) folds the adjacent sealed pair with the
  /// smallest combined size whenever at least this many sealed extras are
  /// live.
  uint32_t merge_trigger_segments = 4;

  /// Run the size-tiered merge policy on a background thread. Off by
  /// default: tests drive MergeOnce() deterministically; serving setups
  /// (shell, ingest bench) turn it on or call StartBackgroundMerge().
  bool background_merge = false;

  /// Poll interval of the background merger when no merge is pending.
  double merge_interval_ms = 2.0;

  // -- Online adaptive view selection (DESIGN.md §17) --------------------

  /// Hard byte budget for the adaptive view cache (actual MemoryBytes of
  /// resident adaptive views). 0 disables the whole subsystem: no
  /// controller is created and the query path never consults it.
  uint64_t adaptive_view_budget_bytes = 0;

  /// Benefit decay half-life in view-eligible observations (see
  /// AdaptiveSelectionConfig::half_life).
  double adaptive_half_life = 256.0;

  /// Minimum decayed score (accumulated straightforward milliseconds)
  /// before a context is worth materializing.
  double adaptive_min_score_ms = 2.0;

  /// Widest context admitted as an adaptive candidate.
  uint32_t adaptive_max_context_terms = 8;

  /// Steps a rejected or evicted candidate sits out (thrash guard).
  uint32_t adaptive_cooldown_steps = 8;

  /// Run the controller's decision loop on a background thread. Off by
  /// default: tests and benches drive AdaptiveStep() deterministically.
  bool adaptive_background = false;

  /// Poll interval of the adaptive background thread when idle.
  double adaptive_interval_ms = 5.0;
};

/// Cumulative fault-tolerance telemetry for one engine, surfaced through
/// ContextSearchEngine::degradation(). Counters only ever increase.
///
/// Memory-order contract: each counter is an independent monotonic event
/// count. Writers (concurrent Search calls) increment with relaxed
/// ordering; readers load with relaxed ordering (the atomics' implicit
/// conversion does this). No ordering is implied *between* counters — a
/// reader polling during a burst may, e.g., observe degraded_queries
/// already incremented while the deadline_hits that caused it still reads
/// the old value. Quiescent reads (no Search in flight) are exact.
struct DegradationStats {
  std::atomic<uint64_t> views_quarantined{0};  // dropped loading a snapshot
  std::atomic<uint64_t> quarantine_fallbacks{0};  // routed around a drop
  std::atomic<uint64_t> deadline_hits{0};  // ScanGuard deadline trips
  std::atomic<uint64_t> budget_hits{0};    // ScanGuard posting-budget trips
  std::atomic<uint64_t> fault_trips{0};    // injected posting faults seen
  std::atomic<uint64_t> degraded_queries{0};  // results with degraded=true
  std::atomic<uint64_t> view_read_faults{0};  // transient view-read faults
  std::atomic<uint64_t> segments_quarantined{0};  // dropped loading snapshot
};

/// The in-flight state of one phased Search. The staged pipeline executor
/// (engine/executor.h) carries one of these across its stages:
///
///   BeginSearch(q, mode, wait)   parse/plan — validation, trace + guard
///                                setup, LiveSet snapshot
///   SearchStats(ps)              phase 1 — collection statistics (cache,
///                                views, degradation rung 2)
///   SearchIntersect(ps)          phase 2 — k-way conjunction, match
///                                materialization (degradation rung 3)
///   FinishSearch(ps)             score/top-k — final chunk scoring,
///                                metrics, trace finish
///
/// Search() itself runs exactly this sequence inline, so pipelined and
/// sequential execution are bit-identical by construction (same scores,
/// tie-breaks, cost counters, and degradation reasons). A PreparedSearch
/// is owned by one stage at a time; queue handoffs provide the
/// happens-before edges, so no member needs synchronization.
struct PreparedSearch {
  PreparedSearch(const ContextQuery& q, EvaluationMode m, uint32_t top_k,
                 double deadline_ms, uint64_t budget, double elapsed_ms)
      : query(q),
        mode(m),
        guard(deadline_ms, budget, elapsed_ms),
        collector(top_k) {}
  PreparedSearch(const PreparedSearch&) = delete;
  PreparedSearch& operator=(const PreparedSearch&) = delete;

  ContextQuery query;
  EvaluationMode mode;
  ScanGuard guard;          // one guard spans all stages (wall clock runs
                            // across queue waits; see AddQueueWait)
  TopKCollector collector;
  WallTimer total_timer;    // started at BeginSearch; read at FinishSearch
  bool record = false;      // metrics_enabled() snapshot from BeginSearch
  std::shared_ptr<QueryTrace> trace;
  TraceContext root;
  QueryStats qstats;
  std::shared_ptr<const LiveSet> live;
  std::vector<SearchPart> parts;
  SearchResult result;

  /// Matches materialized by SearchIntersect. Scored in chunks as the
  /// intersection produces them (bounding memory for huge conjunctions)
  /// with the final chunk scored by FinishSearch; the Offer order equals
  /// the fused loop's, so top-k ties break identically.
  struct Match {
    DocId doc;        // global docid
    uint32_t length;  // len(d)
  };
  std::vector<Match> pending;
  std::vector<uint32_t> pending_tfs;  // pending.size() x unique keywords
  bool retrieval_aborted = false;
  /// D_P per part as SearchStats' straightforward plan built it or took it
  /// from the context-set cache, indexed like `parts`; SearchIntersect
  /// joins the keyword lists with a part's set instead of its predicate
  /// lists. Null for parts served by a view, a stats-cache hit, or
  /// conventional mode; only complete sets are kept. Shared, not copied: a
  /// cached set stays alive while the query holds it.
  std::vector<std::shared_ptr<const ContextSet>> context_sets;
  /// Set by SearchIntersect: how many of the parts with a conjunction to
  /// run joined with their context set instead of their predicate lists.
  size_t set_parts = 0;
  size_t joined_parts = 0;
};

/// The system of the paper, end to end: inverted indexes over content and
/// predicates, conventional and context-sensitive query evaluation, and the
/// materialized-view pipeline (selection + building + query-time matching).
///
/// Typical use:
///
///   auto engine = ContextSearchEngine::Build(std::move(corpus), config);
///   engine->SelectAndMaterializeViews();
///   ContextQuery q{{w1, w2}, {m1, m2}};
///   auto result = engine->Search(q, EvaluationMode::kContextWithViews);
///
/// Threading model (see DESIGN.md §9 and §14): Search() and the const
/// accessors are safe to call from any number of threads concurrently —
/// the base indexes, corpus prefix, catalog, and ranking are immutable
/// during serving, the statistics cache is internally synchronized
/// (mutex-striped shards), and the degradation telemetry is atomic.
/// AppendDocuments() and MergeOnce() are *ingest* operations: safe to run
/// concurrently with any number of Searches (queries serve from an
/// immutable LiveSet snapshot; writers publish a new one by pointer swap)
/// but serialized against each other on an internal ingest mutex. The
/// remaining mutators — Build(), SelectAndMaterializeViews(),
/// MaterializeViews(), InstallCatalog(), FlattenSegments(),
/// InstallSealedSegment(), RebuildSegmentsFromCorpus() — still require
/// exclusive access: no Search or ingest may be in flight.
/// engine/executor.h provides a thread pool that serves Search under this
/// contract.
class ContextSearchEngine {
 public:
  ~ContextSearchEngine();  // stops the background merger before members die

  /// Indexes the corpus. Does not select or build views.
  static Result<std::unique_ptr<ContextSearchEngine>> Build(
      Corpus corpus, EngineConfig config);

  /// Builds an engine around already-constructed indexes (the snapshot load
  /// path: compressed postings are installed directly, no decode-reencode
  /// or rebuild). The indexes become the BASE segment and must cover a
  /// non-empty prefix of `corpus.docs`; any remaining corpus tail is
  /// installed afterwards via InstallSealedSegment /
  /// RebuildSegmentsFromCorpus (segmented snapshots) — a legacy snapshot's
  /// indexes cover the whole corpus and nothing else happens.
  static Result<std::unique_ptr<ContextSearchEngine>> BuildWithIndexes(
      Corpus corpus, EngineConfig config, InvertedIndex content_index,
      InvertedIndex predicate_index);

  /// Converts both inverted indexes and all materialized views to their
  /// compressed representations. Idempotent; called by Build() when
  /// EngineConfig::compressed_postings is set, and by the shell's
  /// `.index compact`. Requires exclusive access (no Search in flight).
  void CompactIndexes();

  /// Runs hybrid view selection (Section 5.3) and materializes the selected
  /// views. Idempotent: re-running replaces the catalog.
  Status SelectAndMaterializeViews();

  /// Materializes caller-provided view definitions (bypasses selection);
  /// used by tests and ablations.
  Status MaterializeViews(std::vector<ViewDefinition> defs);

  /// Appends documents to the collection (they receive the next docids)
  /// WHILE SERVING: only the in-memory write segment is rebuilt — the base
  /// indexes, catalog, and sealed segments are untouched, so concurrent
  /// Searches proceed against their LiveSet snapshot and observe the new
  /// documents atomically when the next snapshot publishes. When the write
  /// segment reaches EngineConfig::mem_segment_max_docs it seals into an
  /// immutable block-compressed segment. Materialized views are maintained
  /// synchronously as per-segment deltas (same integer aggregates, folded
  /// at query time), so the view plan never serves stale statistics. The
  /// tracked-keyword table and T_C are frozen at Build time: views are
  /// slot-aligned to them. Cached statistics are invalidated by epoch.
  Status AppendDocuments(std::vector<Document> docs);

  // -- LSM segment lifecycle (DESIGN.md §14) -----------------------------

  /// One step of the size-tiered merge policy: when at least
  /// EngineConfig::merge_trigger_segments sealed extras are live, folds
  /// the adjacent sealed pair with the smallest combined document count
  /// into one segment (posting-level index merge + view-delta merge, then
  /// block compaction) and publishes the new LiveSet. Returns true when a
  /// merge happened. Safe concurrently with Search; serialized against
  /// AppendDocuments.
  bool MergeOnce();

  /// Folds every extra segment — indexes, years, and view deltas — into
  /// the base, leaving one segment covering the whole collection. The
  /// compacted result is bit-identical to a scratch build over the same
  /// documents (block compaction is a pure function of the logical posting
  /// sequence; view aggregates are integer sums). Requires exclusive
  /// access. Idempotent.
  Status FlattenSegments();

  /// Installs a sealed segment decoded from a snapshot. Must cover exactly
  /// the next docid range ([live end, live end + num_docs) within the
  /// corpus); view deltas are rebuilt from the corpus slice against the
  /// current catalog. Requires exclusive access; call after
  /// InstallCatalog, in ascending base order.
  Status InstallSealedSegment(IndexSegment segment);

  /// (Re)builds segments over the corpus slice [first, corpus end): full
  /// mem_segment_max_docs chunks seal, the remainder becomes the write
  /// buffer. The snapshot load path uses this to recover quarantined or
  /// missing segment ranges from the corpus (which is ground truth), and
  /// to rebuild the unsealed tail that snapshots do not persist. `first`
  /// must equal the live end. Requires exclusive access.
  Status RebuildSegmentsFromCorpus(DocId first);

  /// Starts/stops the background merge thread (idempotent). Finish starts
  /// it automatically when EngineConfig::background_merge is set. The
  /// destructor stops it.
  void StartBackgroundMerge();
  void StopBackgroundMerge();

  /// Total live documents: base + every extra segment. This — not
  /// content_index().num_docs(), which covers only the base — is the
  /// collection size queries see.
  uint64_t total_docs() const;

  /// Documents covered by the base indexes and base catalog views.
  uint64_t base_docs() const { return base_docs_; }

  /// Per-segment shape rows (base first), for `.segments` and tests.
  std::vector<SegmentInfo> SegmentInfos() const;

  /// The current immutable LiveSet (never null). Snapshot persistence
  /// serializes sealed extras from it; tests inspect it.
  std::shared_ptr<const LiveSet> LiveSnapshot() const {
    return SnapshotLive();
  }

  /// Records a segment dropped at snapshot load (corrupt, truncated, or
  /// missing bytes); the loader rebuilds its range from the corpus.
  void RecordSegmentQuarantine() const {
    degradation_.segments_quarantined++;
  }

  /// Installs a catalog loaded from a snapshot (storage/snapshot.h),
  /// replacing the current one. `tracked_terms` must match this engine's
  /// tracked-keyword table — view parameter columns are slot-aligned to
  /// it — else FailedPrecondition.
  Status InstallCatalog(ViewCatalog catalog,
                        const std::vector<TermId>& tracked_terms);

  /// Evaluates Q_c (or the conventional Q_t, per `mode`). Returns
  /// InvalidArgument for queries with no keywords, or with an empty context
  /// in the context-sensitive modes. Safe for concurrent callers (see the
  /// class threading model).
  ///
  /// `elapsed_ms` is time already consumed on this query's behalf before
  /// execution started (the executor passes its queue wait); it counts
  /// against EngineConfig::deadline_ms. A query whose deadline fully
  /// elapsed before execution is shed with kDeadlineExceeded — even under
  /// degrade_gracefully, since any salvage work would violate the deadline
  /// it already missed.
  Result<SearchResult> Search(const ContextQuery& query, EvaluationMode mode,
                              double elapsed_ms = 0.0) const;

  // -- Phased Search (staged pipeline executor) --------------------------
  // Search() == BeginSearch -> SearchStats -> SearchIntersect ->
  // FinishSearch, run inline. The executor runs the same sequence with
  // queue handoffs between stages; results are bit-identical. Every
  // function records query metrics and returns the same typed statuses the
  // monolithic Search would, so a stage error is final — resolve the
  // query's promise with it and drop the PreparedSearch.

  /// Parse/plan stage: validation, early shed when the deadline was
  /// consumed in the queue, trace + guard setup, LiveSet snapshot.
  Result<std::unique_ptr<PreparedSearch>> BeginSearch(
      const ContextQuery& query, EvaluationMode mode,
      double elapsed_ms = 0.0) const;

  /// Phase 1: collection statistics (cache lookup, views, degradation
  /// rung 2 or its typed failure).
  Status SearchStats(PreparedSearch& ps) const;

  /// Phase 2: per-part conjunctions, match materialization with chunked
  /// scoring, degradation rung 3 or its typed failure. Runs under the
  /// calling thread's DecodedBlockArena when one is installed.
  Status SearchIntersect(PreparedSearch& ps) const;

  /// Score/top-k stage: scores the final match chunk, extracts the top-k,
  /// stamps metrics and finishes the trace.
  Result<SearchResult> FinishSearch(PreparedSearch& ps) const;

  /// Attributes `wait_ms` of inter-stage queue wait to the query: the
  /// guard's cumulative queue-wait accounting (surfaced by TripReason) and
  /// a `stage:<stage>` trace event carrying queue_wait_ms. The deadline
  /// clock needs no charge — it has been running since BeginSearch.
  void NoteStageWait(PreparedSearch& ps, std::string_view stage,
                     double wait_ms) const;

  // -- Accessors --------------------------------------------------------
  const Corpus& corpus() const { return corpus_; }
  const InvertedIndex& content_index() const { return content_index_; }
  const InvertedIndex& predicate_index() const { return predicate_index_; }
  const ViewCatalog& catalog() const { return catalog_; }
  const TrackedKeywords& tracked() const { return tracked_; }
  const AtmMapper& atm() const { return *atm_; }
  const EngineConfig& config() const { return config_; }
  const RankingFunction& ranking() const { return *ranking_; }

  /// T_C in absolute documents.
  uint64_t context_threshold() const { return context_threshold_; }

  /// ContextSize(P) = |∩ L_m|, computed from the predicate index.
  uint64_t ContextSize(std::span<const TermId> context) const;

  /// Publication year of document d (global docid; folds over segments).
  uint16_t doc_year(DocId d) const;

  /// Selection telemetry from the last SelectAndMaterializeViews call.
  const HybridResult& selection_result() const { return selection_; }

  /// The statistics cache (null when disabled).
  const StatsCache* stats_cache() const { return stats_cache_.get(); }

  /// The cross-query context-set cache (null when disabled).
  const ContextSetCache* context_set_cache() const {
    return context_set_cache_.get();
  }

  /// Fault-tolerance telemetry: quarantined views, fallbacks, deadline and
  /// budget trips, degraded queries.
  const DegradationStats& degradation() const { return degradation_; }

  /// The circuit breaker guarding the materialized-view read path
  /// (state/telemetry for tests and the shell's `.qos`).
  const CircuitBreaker& view_breaker() const { return view_breaker_; }

  // -- Online adaptive view selection (DESIGN.md §17) --------------------

  /// The adaptive controller, or null when
  /// EngineConfig::adaptive_view_budget_bytes is 0.
  const AdaptiveViewController* adaptive() const { return adaptive_.get(); }

  /// One adaptive decision cycle (install / refresh / nothing). Tests and
  /// benches call this instead of running the background thread; returns
  /// false when the subsystem is disabled or the cycle found no work.
  bool AdaptiveStep() const;

  /// Starts/stops the adaptive background thread (idempotent; no-ops when
  /// the subsystem is disabled). Finish starts it automatically when
  /// EngineConfig::adaptive_background is set.
  void StartAdaptiveSelection();
  void StopAdaptiveSelection();

  /// Test hook: invoked by the adaptive materializer right after it pins
  /// its LiveSet snapshot and before it builds — a test can run MergeOnce
  /// there to prove builds racing a merge stay correct.
  void SetAdaptiveBuildInterceptForTest(std::function<void()> fn) {
    adaptive_build_intercept_ = std::move(fn);
  }

  // -- Observability ----------------------------------------------------

  /// The engine's metrics registry. Components owned by this engine
  /// (stats cache, degradation telemetry, per-query cost counters) are
  /// registered at Build time; external components serving through this
  /// engine (QueryExecutor) register themselves here. Thread-safe.
  MetricsRegistry& metrics_registry() const { return registry_; }

  /// Point-in-time snapshot of every registered instrument plus the
  /// sampled legacy counters, exported under stable dotted names
  /// (engine.*, executor.*, ...). See MetricsSnapshot::ToJson().
  csr::MetricsSnapshot MetricsSnapshot() const { return registry_.Snapshot(); }

  /// Runtime toggles mirroring the EngineConfig fields, so a bench (or the
  /// shell) can A/B instrumented vs un-instrumented serving on ONE engine
  /// without rebuilding indexes. Safe to flip while Search is in flight.
  bool metrics_enabled() const {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }
  void set_metrics_enabled(bool on) {
    metrics_enabled_.store(on, std::memory_order_relaxed);
  }
  void set_trace_sample_rate(double rate);

 private:
  ContextSearchEngine() = default;

  /// Shared tail of Build/BuildWithIndexes: everything after the indexes
  /// exist (thresholds, tracked keywords, parameter table, ATM, cache), plus
  /// the compaction pass when configured.
  static Result<std::unique_ptr<ContextSearchEngine>> Finish(
      std::unique_ptr<ContextSearchEngine> engine);

  /// Context statistics by the cheapest usable plan: one view resolved
  /// from the offline catalog or the adaptive cache, gated once, then one
  /// fold over the parts (a view-less part runs the straightforward
  /// plan). Every part the straightforward plan serves leaves its
  /// complete ContextSet — built, or taken from the context-set cache — in
  /// `sets[part index]` (sized to `parts`) for retrieval to reuse. The
  /// cache is consulted only `with_views`.
  CollectionStats ComputeContextStats(
      const ContextQuery& query, const QueryStats& qstats, bool with_views,
      SearchMetrics& metrics, ScanGuard* guard,
      std::span<const SearchPart> parts,
      std::vector<std::shared_ptr<const ContextSet>>& sets,
      TraceContext tctx = {}) const;

  /// The overload gate of the view path (DESIGN.md §13), shared by both
  /// view sources: the circuit breaker, then the kViewRead read with
  /// retries drawn from the global budget. Returns the fallback reason
  /// when the view must not be read (marking `metrics` degraded when a
  /// fault persisted), or an empty string when it may.
  std::string_view GateViewRead(SearchMetrics& metrics) const;

  /// The parameter columns every view of this engine carries: df always,
  /// tc and the year buckets as configured.
  ViewParamOptions ViewParams() const;

  /// Query-time df (and tc) of the keywords the view's parameter columns
  /// do not cover (`covered[i]` false), summed over the view-served
  /// `parts` into `stats`, one "intersect:df" span per keyword: a 2-way
  /// join with the part's D_P when `sets` (parallel to `parts`) holds
  /// one, else the (m + 1)-way chain of CountKeywordInContext. Returns
  /// how many keywords that was.
  uint32_t AddUncoveredKeywordStats(
      const ContextQuery& query, const QueryStats& qstats,
      const std::vector<bool>& covered, std::span<const SearchPart> parts,
      std::span<const std::shared_ptr<const ContextSet>> sets,
      CostCounters& cost, ScanGuard* guard, TraceContext tctx,
      CollectionStats& stats) const;

  /// Conventional-ranking statistics folded over every part (integer sums
  /// of the per-part precomputed global statistics).
  CollectionStats FoldGlobalStats(std::span<const SearchPart> parts,
                                  std::span<const TermId> keywords) const;

  /// The current LiveSet (never null after Finish). One mutex-guarded
  /// shared_ptr copy; queries call it once and serve from the snapshot.
  std::shared_ptr<const LiveSet> SnapshotLive() const;

  /// Publishes a new LiveSet (stamps the next epoch). Caller holds
  /// ingest_mu_ or has exclusive access.
  void PublishLive(std::shared_ptr<LiveSet> next);

  /// The query-plan parts for one snapshot: base first, then every extra.
  std::vector<SearchPart> MakeParts(const LiveSet& live) const;

  /// Builds one segment over corpus docs [first, end) with local docids,
  /// including view deltas against the current catalog; seals (and block-
  /// compresses, when configured) iff `seal`. Caller holds ingest_mu_.
  Result<std::shared_ptr<EngineSegment>> BuildSegmentLocked(DocId first,
                                                            DocId end,
                                                            bool seal);

  /// Replaces every extra covering [tail_first, corpus end) with freshly
  /// built segments: full mem_segment_max_docs chunks seal, the remainder
  /// becomes the unsealed write buffer. Caller holds ingest_mu_; no extra
  /// may straddle tail_first.
  Status ResegmentTailLocked(DocId tail_first);

  /// Rebuilds a segment's view deltas from the corpus slice (used when a
  /// loaded segment carries indexes but deltas must align with the current
  /// catalog). Caller holds ingest_mu_.
  std::vector<MaterializedView> BuildViewDeltasLocked(
      const InvertedIndex& content, DocId first, DocId end) const;

  /// Folds a tripped guard into the degradation telemetry.
  void RecordTrip(const ScanGuard& guard) const;

  /// Scores every pending match into the collector (chunk drain of the
  /// phased retrieval; see PreparedSearch::pending).
  void ScorePending(PreparedSearch& ps) const;

  /// Registers the engine-owned instruments and legacy-counter sample
  /// callbacks into registry_ (called once, at the end of Finish).
  void RegisterMetrics();

  /// True when this query should record a full trace (every Nth query per
  /// trace_sample_rate). One relaxed fetch_add; never true when off.
  bool ShouldTrace() const;

  /// Folds one query's SearchMetrics into the registry counters. Gated on
  /// metrics_enabled(); all updates go through cached instrument pointers
  /// (relaxed atomics), never a registry lookup.
  void RecordQueryMetrics(const SearchMetrics& m, EvaluationMode mode,
                          bool failed) const;

  /// The adaptive controller's materialize hook: builds `def` against the
  /// CURRENT live snapshot — base via the index-side builder (never the
  /// growing corpus vector), one delta per extra segment — reusing
  /// `prior`'s base and still-live deltas when given. Runs on the
  /// controller's background thread concurrently with queries, appends,
  /// and merges.
  std::shared_ptr<const AdaptiveView> BuildAdaptiveView(
      const ViewDefinition& def,
      std::shared_ptr<const AdaptiveView> prior) const;

  /// Creates + starts the controller (Finish tail, after the estimator
  /// exists); no-op when the budget is 0.
  void InitAdaptive();

  Corpus corpus_;
  EngineConfig config_;
  uint64_t context_threshold_ = 0;
  InvertedIndex content_index_;    // the base segment
  InvertedIndex predicate_index_;  // the base segment
  TrackedKeywords tracked_;
  std::vector<uint16_t> years_;  // publication year, BASE documents only
  uint64_t base_docs_ = 0;       // documents covered by the base indexes
  std::unique_ptr<DocParamTable> param_table_;
  std::unique_ptr<ViewSizeEstimator> estimator_;
  std::unique_ptr<AtmMapper> atm_;
  std::unique_ptr<RankingFunction> ranking_;
  ViewCatalog catalog_;
  HybridResult selection_;
  // Mutable: Search() is logically const; the cache is an optimization.
  // The pointer itself is fixed after Build(); the pointee is internally
  // synchronized (mutex-striped shards), so concurrent Searches may share
  // it freely.
  mutable std::unique_ptr<StatsCache> stats_cache_;
  // Mutable for the same reason: telemetry about const queries. All
  // members are relaxed atomics (see DegradationStats).
  mutable DegradationStats degradation_;
  // View-path circuit breaker (DESIGN.md §13). Internally synchronized
  // (its own leaf mutex); mutable because breaker transitions are driven
  // by const Search calls.
  mutable CircuitBreaker view_breaker_;

  // Observability. The registry is internally synchronized; the hot-path
  // instrument pointers below are resolved once in RegisterMetrics and
  // immutable afterwards (updates through them are relaxed atomics).
  mutable MetricsRegistry registry_;
  // The context-set cache: the stats cache's pattern (fixed pointer,
  // internally synchronized shards); null when context_set_cache_bytes is
  // 0. Declared after registry_, which holds its counters and outlives it.
  mutable std::unique_ptr<ContextSetCache> context_set_cache_;
  struct HotMetrics {
    Counter* queries = nullptr;
    Counter* queries_failed = nullptr;
    Counter* queries_degraded = nullptr;
    Counter* traces_sampled = nullptr;
    Counter* plan_view_hits = nullptr;
    Counter* plan_straightforward = nullptr;
    Counter* plan_conventional = nullptr;
    Counter* plan_cache_hits = nullptr;
    Counter* plan_view_fallbacks = nullptr;
    Counter* plan_adaptive_hits = nullptr;  // stats served by the adaptive cache
    Counter* cost_entries_scanned = nullptr;
    Counter* cost_segments_touched = nullptr;
    Counter* cost_skips_taken = nullptr;
    Counter* cost_aggregation_entries = nullptr;
    Counter* cost_view_tuples_scanned = nullptr;
    Counter* cost_blocks_skipped = nullptr;
    Counter* cost_bytes_touched = nullptr;
    Histogram* total_ms = nullptr;
    Histogram* stats_ms = nullptr;
    Histogram* retrieval_ms = nullptr;
    // Live-ingestion instruments (ingest.*, segments.*, view.delta.*).
    Counter* ingest_docs = nullptr;
    Counter* ingest_batches = nullptr;
    Counter* ingest_seals = nullptr;
    Counter* segment_merges = nullptr;
    Counter* segment_merged_docs = nullptr;
    Counter* view_delta_folds = nullptr;   // query-time delta folds
    Counter* view_delta_merges = nullptr;  // physical merges at compaction
  };
  HotMetrics hot_;
  std::atomic<bool> metrics_enabled_{true};
  // Trace-every-Nth period derived from trace_sample_rate (0 = off), and
  // the query sequence counter driving it.
  std::atomic<uint32_t> trace_period_{0};
  mutable std::atomic<uint64_t> trace_sequence_{0};

  // -- Live ingestion state (DESIGN.md §14) ------------------------------
  // live_mu_ is a leaf mutex guarding only the live_ pointer swap: readers
  // (Search, telemetry) copy the shared_ptr under it and serve from the
  // immutable snapshot; writers build the next LiveSet outside the lock
  // and swap it in. ingest_mu_ serializes the writers themselves (append,
  // seal, merge publish) and protects corpus_.docs growth + the segment id
  // counter; queries never take it.
  mutable std::mutex live_mu_;
  std::shared_ptr<const LiveSet> live_;
  std::mutex ingest_mu_;
  uint64_t next_segment_id_ = 1;  // 0 is the base; guarded by ingest_mu_
  std::atomic<uint64_t> next_epoch_{2};

  // -- Online adaptive view selection (DESIGN.md §17) --------------------
  // The controller is internally synchronized; mutable because the query
  // path (const Search) records hits/misses into its estimator. Null when
  // adaptive_view_budget_bytes is 0. Exclusive mutators (flatten, catalog
  // install, compaction) stop + reset it — see AdaptiveExclusiveGuard in
  // engine.cc.
  mutable std::unique_ptr<AdaptiveViewController> adaptive_;
  std::function<void()> adaptive_build_intercept_;  // test-only, see setter

  // Declared last so it is destroyed first: the merger thread must stop
  // before any engine state it reads goes away. (The engine destructor
  // stops the adaptive thread explicitly before members die.)
  std::unique_ptr<SegmentMerger> merger_;
};

}  // namespace csr

#endif  // CSR_ENGINE_ENGINE_H_
