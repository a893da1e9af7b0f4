// Observability suite (PR 5): the metrics registry (named instruments,
// relaxed-atomic hot paths, sample-callback migration of the legacy
// counter structs, JSON export) and per-query trace span trees
// (sampling, span coverage of plan choice + every intersection, JSON
// shape). The concurrency angle — a metrics reader racing live workers —
// lives in concurrency_test.cc so it runs under the TSan lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace csr {
namespace {

/// A query-worker pool of `threads` workers and a queue of `capacity`.
ExecutorConfig PoolConfig(uint32_t threads, size_t capacity) {
  ExecutorConfig cfg;
  cfg.num_threads = threads;
  cfg.queue_capacity = capacity;
  return cfg;
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("a.b");
  Counter& c2 = registry.GetCounter("a.b");
  EXPECT_EQ(&c1, &c2);
  c1.Increment();
  c2.Increment(4);
  EXPECT_EQ(c1.value(), 5u);

  Gauge& g = registry.GetGauge("a.g");
  g.Set(2.5);
  EXPECT_EQ(&g, &registry.GetGauge("a.g"));
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  Histogram& h = registry.GetHistogram("a.h");
  EXPECT_EQ(&h, &registry.GetHistogram("a.h"));
  // Empty bounds pick the default latency buckets.
  EXPECT_EQ(h.bounds().size(),
            MetricsRegistry::DefaultLatencyBucketsMs().size());
}

TEST(MetricsRegistryTest, HistogramBucketsAndOverflow) {
  MetricsRegistry registry;
  std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram& h = registry.GetHistogram("lat", bounds);
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (inclusive upper bound)
  h.Observe(7.0);    // bucket 1
  h.Observe(99.0);   // bucket 2
  h.Observe(500.0);  // overflow
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 99.0 + 500.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("hot");
  Histogram& h = registry.GetHistogram("hist", std::vector<double>{10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h.count(), uint64_t{kThreads} * kPerThread);
  // The CAS-loop sum must not lose updates either.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SampleCallbacksContributeAndRemove) {
  MetricsRegistry registry;
  registry.GetCounter("own").Increment(3);
  uint64_t handle = registry.AddSampleCallback([](MetricsSnapshot& s) {
    s.counters["legacy.value"] = 42;
    s.gauges["legacy.depth"] = 7.0;
  });
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters["own"], 3u);
  EXPECT_EQ(snap.counters["legacy.value"], 42u);
  EXPECT_DOUBLE_EQ(snap.gauges["legacy.depth"], 7.0);

  registry.RemoveSampleCallback(handle);
  snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.count("legacy.value"), 0u);
  EXPECT_EQ(snap.counters["own"], 3u);
}

// ----------------------------------------------------- JSON round-trip

// Minimal JSON scanner for the flat shapes MetricsSnapshot::ToJson and
// QueryTrace::ToJson emit — enough to prove the output parses and the
// values survive, without a JSON dependency.
struct JsonScanner {
  std::string_view s;
  size_t i = 0;

  void Ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool Eat(char c) {
    Ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    Ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out->push_back(s[i++]);
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  bool Number(double* out) {
    Ws();
    size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
      ++i;
    }
    if (i == start) return false;
    *out = std::stod(std::string(s.substr(start, i - start)));
    return true;
  }
  /// Skips any value (object/array/string/number/bool) by bracket depth.
  bool SkipValue() {
    Ws();
    if (i >= s.size()) return false;
    if (s[i] == '"') {
      std::string tmp;
      return String(&tmp);
    }
    if (s[i] == '{' || s[i] == '[') {
      char open = s[i], close = open == '{' ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      for (; i < s.size(); ++i) {
        char c = s[i];
        if (in_str) {
          if (c == '\\') ++i;
          else if (c == '"') in_str = false;
          continue;
        }
        if (c == '"') in_str = true;
        else if (c == open) ++depth;
        else if (c == close && --depth == 0) {
          ++i;
          return true;
        }
      }
      return false;
    }
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
    return true;
  }

  /// Parses {"k": <number>, ...}; skips non-numeric values.
  bool FlatObject(std::map<std::string, double>* out) {
    if (!Eat('{')) return false;
    Ws();
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Eat(':')) return false;
      double v = 0;
      size_t save = i;
      if (Number(&v)) {
        (*out)[key] = v;
      } else {
        i = save;
        if (!SkipValue()) return false;
      }
    } while (Eat(','));
    return Eat('}');
  }
};

/// Extracts the flat numeric members of a named top-level section, e.g.
/// Section(json, "counters") -> {"engine.queries": 12, ...}.
std::map<std::string, double> Section(const std::string& json,
                                      const std::string& name) {
  std::map<std::string, double> out;
  size_t pos = json.find("\"" + name + "\"");
  EXPECT_NE(pos, std::string::npos) << "section " << name << " missing";
  if (pos == std::string::npos) return out;
  pos = json.find(':', pos);
  JsonScanner scan{json, pos + 1};
  EXPECT_TRUE(scan.FlatObject(&out)) << "section " << name << " unparsable";
  return out;
}

Corpus ObsCorpus() {
  CorpusConfig cfg;
  cfg.num_docs = 2500;
  cfg.vocab_size = 1800;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = 1234;
  return CorpusGenerator(cfg).Generate().value();
}

ContextQuery ObsQuery(const ContextSearchEngine& engine, TermId concept_id,
                      uint32_t j = 0) {
  const CorpusConfig& cc = engine.corpus().config;
  ContextQuery q;
  q.keywords = {CorpusGenerator::ConceptTopicalTerm(concept_id, j,
                                                    cc.vocab_size,
                                                    cc.topical_window),
                CorpusGenerator::ConceptTopicalTerm(concept_id, j + 1,
                                                    cc.vocab_size,
                                                    cc.topical_window)};
  q.context = {concept_id};
  return q;
}

// Every legacy counter struct must round-trip through the snapshot JSON
// under its stable dotted name, with values matching the (authoritative)
// legacy accessors. This is the ISSUE's "registered into, not replaced
// by" acceptance test.
TEST(MetricsExportTest, SnapshotJsonRoundTripsLegacyCounters) {
  EngineConfig ecfg;
  ecfg.stats_cache_capacity = 16;
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  ASSERT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());

  {
    QueryExecutor executor(engine.get(), PoolConfig(2, 32));
    std::vector<ContextQuery> queries;
    for (int i = 0; i < 12; ++i) {
      queries.push_back(ObsQuery(*engine, static_cast<TermId>(i % 4)));
    }
    auto results =
        executor.SearchBatch(queries, EvaluationMode::kContextWithViews);
    for (const auto& r : results) ASSERT_TRUE(r.ok());

    // Executor alive: its section must be present and exact.
    std::string json = engine->MetricsSnapshot().ToJson();
    std::map<std::string, double> counters = Section(json, "counters");
    std::map<std::string, double> gauges = Section(json, "gauges");
    ExecutorMetrics em = executor.metrics();
    EXPECT_EQ(counters.at("executor.submitted"), em.submitted);
    EXPECT_EQ(counters.at("executor.completed"), em.completed);
    EXPECT_EQ(counters.at("executor.rejected"), em.rejected);
    EXPECT_EQ(gauges.at("executor.queue_depth"), 0.0);
    EXPECT_EQ(gauges.at("executor.max_queue_depth"), em.max_queue_depth);
    EXPECT_GE(gauges.at("executor.exec_ms_total"), 0.0);
  }

  // Executor destroyed: its callback unhooked, engine sections intact.
  std::string json = engine->MetricsSnapshot().ToJson();
  std::map<std::string, double> counters = Section(json, "counters");
  std::map<std::string, double> gauges = Section(json, "gauges");
  EXPECT_EQ(counters.count("executor.submitted"), 0u);

  // DegradationStats under engine.degradation.*.
  const DegradationStats& d = engine->degradation();
  EXPECT_EQ(counters.at("engine.degradation.deadline_hits"),
            d.deadline_hits.load());
  EXPECT_EQ(counters.at("engine.degradation.budget_hits"),
            d.budget_hits.load());
  EXPECT_EQ(counters.at("engine.degradation.degraded_queries"),
            d.degraded_queries.load());
  EXPECT_EQ(counters.at("engine.degradation.views_quarantined"),
            d.views_quarantined.load());

  // StatsCache counters under engine.stats_cache.*.
  const StatsCache* cache = engine->stats_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(counters.at("engine.stats_cache.hits"), cache->hits());
  EXPECT_EQ(counters.at("engine.stats_cache.misses"), cache->misses());
  EXPECT_EQ(counters.at("engine.stats_cache.evictions"),
            cache->evictions());
  EXPECT_EQ(gauges.at("engine.stats_cache.entries"), cache->size());

  // Engine-owned instruments: per-query CostCounters aggregate and plan
  // counters. 12 queries ran, all against a view-covered context.
  EXPECT_EQ(counters.at("engine.queries"), 12.0);
  EXPECT_EQ(counters.at("engine.queries_failed"), 0.0);
  EXPECT_EQ(counters.at("engine.plan.view_hits") +
                counters.at("engine.plan.stats_cache_hits"),
            12.0);
  EXPECT_GT(counters.at("engine.cost.entries_scanned"), 0.0);
  EXPECT_GT(counters.at("engine.cost.bytes_touched"), 0.0);

  // Catalog gauges.
  EXPECT_EQ(gauges.at("engine.views.materialized"), 1.0);

  // Histogram section: engine latency histogram holds all 12 queries.
  size_t pos = json.find("\"engine.latency.total_ms\"");
  ASSERT_NE(pos, std::string::npos);
  size_t cpos = json.find("\"count\": ", pos);
  ASSERT_NE(cpos, std::string::npos);
  EXPECT_EQ(json.substr(cpos, 12), "\"count\": 12,")
      << json.substr(cpos, 24);
}

// The context-set cache keeps its counters and bytes gauge in the
// registry itself (no sample callback): they round-trip through the
// snapshot JSON and equal the cache's accessors, which read them back.
TEST(MetricsExportTest, ContextSetCacheInstrumentsRoundTrip) {
  auto engine = ContextSearchEngine::Build(ObsCorpus(), {}).value();
  ASSERT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
  // No view covers {5}: the straightforward plan serves it, caching D_P on
  // the first query and hitting it after.
  const ContextQuery q = ObsQuery(*engine, 5);
  for (int i = 0; i < 3; ++i) {
    auto r = engine->Search(q, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->metrics.used_view);
    EXPECT_EQ(r->metrics.context_set_hits, i == 0 ? 0u : 1u);
  }
  const ContextSetCache* sets = engine->context_set_cache();
  ASSERT_NE(sets, nullptr);
  EXPECT_EQ(sets->hits(), 2u);
  EXPECT_EQ(sets->misses(), 1u);
  EXPECT_GT(sets->bytes(), 0u);
  std::string json = engine->MetricsSnapshot().ToJson();
  std::map<std::string, double> counters = Section(json, "counters");
  std::map<std::string, double> gauges = Section(json, "gauges");
  EXPECT_EQ(counters.at("engine.context_set_cache.hits"), sets->hits());
  EXPECT_EQ(counters.at("engine.context_set_cache.misses"), sets->misses());
  EXPECT_EQ(counters.at("engine.context_set_cache.evictions"),
            sets->evictions());
  EXPECT_EQ(gauges.at("engine.context_set_cache.bytes"), sets->bytes());
}

TEST(MetricsExportTest, MetricsDisabledFreezesEngineInstruments) {
  auto engine = ContextSearchEngine::Build(ObsCorpus(), {}).value();
  ContextQuery q = ObsQuery(*engine, 1);
  ASSERT_TRUE(
      engine->Search(q, EvaluationMode::kContextStraightforward).ok());
  uint64_t after_one =
      engine->MetricsSnapshot().counters.at("engine.queries");
  EXPECT_EQ(after_one, 1u);

  engine->set_metrics_enabled(false);
  ASSERT_TRUE(
      engine->Search(q, EvaluationMode::kContextStraightforward).ok());
  EXPECT_EQ(engine->MetricsSnapshot().counters.at("engine.queries"),
            after_one);
  // The legacy structs keep counting regardless — they are authoritative.
  engine->set_metrics_enabled(true);
  ASSERT_TRUE(
      engine->Search(q, EvaluationMode::kContextStraightforward).ok());
  EXPECT_EQ(engine->MetricsSnapshot().counters.at("engine.queries"),
            after_one + 1);
}

// ---------------------------------------------------------------- traces

TEST(QueryTraceTest, SpanTreeCoversPlanAndEveryIntersection) {
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;  // trace everything
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  ASSERT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());

  // Straightforward plan: one intersect:context + one intersect:df per
  // keyword, under plan:straightforward, under stats.
  ContextQuery q = ObsQuery(*engine, 1);
  auto r = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);
  const TraceSpan& root = r->trace->root();
  EXPECT_EQ(root.name, "search");
  EXPECT_EQ(root.AttrValue("mode"), "context-straightforward");
  EXPECT_GT(root.duration_ms, 0.0);

  ASSERT_NE(root.Find("parse"), nullptr);
  const TraceSpan* stats = root.Find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->Find("stats_cache_lookup"), nullptr);
  const TraceSpan* plan = stats->Find("plan:straightforward");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->CountByName("intersect:context"), 1u);
  EXPECT_EQ(plan->CountByName("intersect:df"), q.keywords.size());
  const TraceSpan* ictx = plan->Find("intersect:context");
  // Every intersection span carries the cost-model attribution.
  EXPECT_FALSE(ictx->AttrValue("strategy").empty());
  EXPECT_FALSE(ictx->AttrValue("bytes_touched").empty());
  EXPECT_FALSE(ictx->AttrValue("blocks_skipped").empty());
  EXPECT_FALSE(ictx->AttrValue("entries_scanned").empty());

  const TraceSpan* retrieval = root.Find("retrieval");
  ASSERT_NE(retrieval, nullptr);
  const TraceSpan* ir = retrieval->Find("intersect:retrieval");
  ASSERT_NE(ir, nullptr);
  EXPECT_FALSE(ir->AttrValue("strategy").empty());
  EXPECT_EQ(ir->AttrValue("scoring"), "pivoted-tfidf");
  EXPECT_EQ(ir->AttrValue("docs_scored"),
            std::to_string(r->result_count));
  // Retrieval joined the keyword lists with the D_P the stats phase built
  // (one part), not with the predicate lists.
  EXPECT_EQ(ir->AttrValue("context_set"), "1");
  EXPECT_EQ(ir->AttrValue("lists"), std::to_string(q.keywords.size() + 1));
  const std::string set_join = std::to_string(q.keywords.size() + 1) +
                               "-way conjunction with the context set,";
  EXPECT_NE(r->metrics.plan.find(set_join), std::string::npos)
      << r->metrics.plan;

  // View plan: the plan span flips to plan:view, and retrieval has no
  // context set to join with.
  auto rv = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(rv.ok());
  ASSERT_NE(rv->trace, nullptr);
  const TraceSpan* vplan = rv->trace->root().Find("plan:view");
  ASSERT_NE(vplan, nullptr);
  EXPECT_FALSE(vplan->AttrValue("view_tuples_scanned").empty());
  EXPECT_EQ(rv->trace->root().Find("plan:straightforward"), nullptr);
  EXPECT_EQ(rv->trace->root().CountByName("intersect:context"), 0u);
  const TraceSpan* vir = rv->trace->root().Find("intersect:retrieval");
  ASSERT_NE(vir, nullptr);
  EXPECT_EQ(vir->AttrValue("context_set"), "0");
  const std::string list_join =
      std::to_string(q.keywords.size() + q.context.size()) +
      "-way conjunction,";
  EXPECT_NE(rv->metrics.plan.find(list_join), std::string::npos)
      << rv->metrics.plan;
  EXPECT_EQ(rv->metrics.plan.find("context set"), std::string::npos);

  // The trace serializes to JSON containing the span names nested.
  std::string json = rv->trace->ToJson();
  EXPECT_NE(json.find("\"name\": \"search\""), std::string::npos) << json;
  EXPECT_NE(json.find("plan:view"), std::string::npos);
  EXPECT_NE(json.find("intersect:retrieval"), std::string::npos);
}

TEST(QueryTraceTest, OneContextSetPerPartFeedsRetrieval) {
  // A segmented engine: the base plus appended segments.
  Corpus full = ObsCorpus();
  Corpus prefix = full;
  prefix.docs.resize(1500);
  prefix.config.num_docs = 1500;
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;
  auto engine = ContextSearchEngine::Build(std::move(prefix), ecfg).value();
  for (size_t pos = 1500; pos < full.docs.size(); pos += 500) {
    size_t end = std::min(full.docs.size(), pos + 500);
    ASSERT_TRUE(engine
                    ->AppendDocuments(std::vector<Document>(
                        full.docs.begin() + pos, full.docs.begin() + end))
                    .ok());
  }
  ContextQuery q = ObsQuery(*engine, 1);
  auto r = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);
  const TraceSpan& root = r->trace->root();
  std::string segments(root.AttrValue("segments"));
  ASSERT_FALSE(segments.empty()) << "appends left a single part";
  const size_t parts = std::stoul(segments);
  ASSERT_GT(parts, 1u);

  // Exactly one conjunction over the predicate lists per part; every
  // keyword's df is a 2-way join with that part's set.
  const TraceSpan* plan = root.Find("plan:straightforward");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->CountByName("intersect:context"), parts);
  EXPECT_EQ(plan->CountByName("intersect:df"), parts * q.keywords.size());
  const TraceSpan* df = plan->Find("intersect:df");
  ASSERT_NE(df, nullptr);
  EXPECT_EQ(df->AttrValue("lists"), "2");
  EXPECT_FALSE(df->AttrValue("strategy").empty());
  EXPECT_FALSE(df->AttrValue("entries_scanned").empty());

  // Retrieval joined every part that had matches with its set.
  const TraceSpan* ir = root.Find("intersect:retrieval");
  ASSERT_NE(ir, nullptr);
  std::string with_set(ir->AttrValue("context_set"));
  ASSERT_FALSE(with_set.empty());
  EXPECT_GT(std::stoul(with_set), 0u);
  EXPECT_LE(std::stoul(with_set), parts);
}

TEST(QueryTraceTest, AdaptiveViewTracesUntrackedKeywordDf) {
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;
  ecfg.adaptive_view_budget_bytes = 8ull << 20;
  ecfg.adaptive_min_score_ms = 0.00001;  // one miss funds an install
  ecfg.adaptive_cooldown_steps = 1;
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  // A keyword without a parameter column, so the adaptive view cannot
  // answer its df.
  ContextQuery q = ObsQuery(*engine, 1);
  const InvertedIndex& content = engine->content_index();
  TermId untracked = 0;
  while (untracked < content.num_terms() &&
         (content.df(untracked) == 0 ||
          engine->tracked().IsTracked(untracked))) {
    ++untracked;
  }
  ASSERT_LT(untracked, content.num_terms());
  q.keywords.push_back(untracked);

  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
  ASSERT_TRUE(engine->AdaptiveStep());
  auto r = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->metrics.used_adaptive_view);
  ASSERT_GE(r->metrics.keywords_uncovered_by_view, 1u);
  ASSERT_NE(r->trace, nullptr);
  const TraceSpan* plan = r->trace->root().Find("plan:adaptive_view");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->CountByName("intersect:df"),
            r->metrics.keywords_uncovered_by_view);
  const TraceSpan* df = plan->Find("intersect:df");
  ASSERT_NE(df, nullptr);
  EXPECT_EQ(df->AttrValue("keyword"), std::to_string(untracked));
  EXPECT_FALSE(df->AttrValue("entries_scanned").empty());
  EXPECT_FALSE(df->AttrValue("bytes_touched").empty());
}

TEST(QueryTraceTest, AdaptiveViewFoldsDeltasLikeCatalogViews) {
  // A segmented engine (appends past mem_segment_max_docs seal segments)
  // whose only view source is the adaptive cache, built after the appends
  // so every part has a fresh delta.
  Corpus full = ObsCorpus();
  Corpus prefix = full;
  prefix.docs.resize(1500);
  prefix.config.num_docs = 1500;
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;
  ecfg.mem_segment_max_docs = 400;
  ecfg.adaptive_view_budget_bytes = 8ull << 20;
  ecfg.adaptive_min_score_ms = 0.00001;  // one miss funds an install
  ecfg.adaptive_cooldown_steps = 1;
  auto engine = ContextSearchEngine::Build(std::move(prefix), ecfg).value();
  ASSERT_TRUE(engine
                  ->AppendDocuments(std::vector<Document>(
                      full.docs.begin() + 1500, full.docs.end()))
                  .ok());
  ContextQuery q = ObsQuery(*engine, 1);
  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
  ASSERT_TRUE(engine->AdaptiveStep());

  const uint64_t folds_before =
      engine->MetricsSnapshot().counters.at("view.delta.folds");
  auto r = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->metrics.used_adaptive_view);
  ASSERT_NE(r->trace, nullptr);
  std::string segments(r->trace->root().AttrValue("segments"));
  ASSERT_FALSE(segments.empty()) << "appends left a single part";
  const uint64_t parts = std::stoul(segments);
  ASSERT_GT(parts, 2u);

  // Every part but the base folded its delta, counted as the catalog
  // path counts its own.
  EXPECT_EQ(engine->MetricsSnapshot().counters.at("view.delta.folds"),
            folds_before + (parts - 1));
  const TraceSpan* plan = r->trace->root().Find("plan:adaptive_view");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->AttrValue("view_tuples_scanned"),
            std::to_string(r->metrics.view_tuples_scanned));
  EXPECT_GT(r->metrics.view_tuples_scanned, 0u);
}

TEST(QueryTraceTest, SamplingTracesEveryNthQuery) {
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 0.5;  // every 2nd query
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  ContextQuery q = ObsQuery(*engine, 2);
  size_t traced = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = engine->Search(q, EvaluationMode::kContextStraightforward);
    ASSERT_TRUE(r.ok());
    if (r->trace != nullptr) ++traced;
  }
  EXPECT_EQ(traced, 5u);
  EXPECT_EQ(engine->MetricsSnapshot().counters.at("engine.traces_sampled"),
            5u);

  // Rate 0 turns tracing off; runtime toggle turns it back on.
  engine->set_trace_sample_rate(0.0);
  auto off = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->trace, nullptr);
  engine->set_trace_sample_rate(1.0);
  auto on = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(on.ok());
  EXPECT_NE(on->trace, nullptr);
}

TEST(QueryTraceTest, DefaultConfigNeverTraces) {
  auto engine = ContextSearchEngine::Build(ObsCorpus(), {}).value();
  ContextQuery q = ObsQuery(*engine, 0);
  auto r = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->trace, nullptr);
}

TEST(QueryTraceTest, DegradedQueryRecordsEvent) {
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;
  ecfg.posting_scan_budget = 100;  // trips on broad contexts
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  ContextQuery q = ObsQuery(*engine, 0);
  auto r = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->metrics.degraded) << "budget did not trip; raise docs or "
                                      "lower the budget";
  ASSERT_NE(r->trace, nullptr);
  const TraceSpan* event = r->trace->root().Find("event:degraded");
  ASSERT_NE(event, nullptr);
  EXPECT_NE(std::string(event->AttrValue("reason")).find("budget"),
            std::string::npos)
      << event->AttrValue("reason");
  EXPECT_EQ(r->trace->root().AttrValue("degraded"), "true");
}

TEST(QueryTraceTest, QueueWaitAttributedFromExecutor) {
  EngineConfig ecfg;
  ecfg.trace_sample_rate = 1.0;
  auto engine = ContextSearchEngine::Build(ObsCorpus(), ecfg).value();
  QueryExecutor executor(engine.get(), PoolConfig(1, 8));
  std::vector<ContextQuery> queries(4, ObsQuery(*engine, 1));
  auto results =
      executor.SearchBatch(queries, EvaluationMode::kContextStraightforward);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    ASSERT_NE(r->trace, nullptr);
    // The executor measured the queue wait and Search attributed it on the
    // root span (as an attribute: the trace clock starts at execution).
    EXPECT_FALSE(r->trace->root().AttrValue("queue_wait_ms").empty());
  }
}

}  // namespace
}  // namespace csr
