// Concurrency suite (ctest -L concurrency; also the ThreadSanitizer lane:
// cmake --preset tsan && cmake --build --preset tsan && ctest --preset
// tsan). Three layers:
//
//  1. Differential: a fixed workload run sequentially and through
//     QueryExecutor::SearchBatch at 1/2/8 threads must produce
//     bit-identical doc ids, scores, and degradation reasons — threading
//     is an execution detail, never a semantic one.
//  2. Stress: many threads hammering one engine with overlapping contexts
//     while the stats cache is tiny (eviction churn on every shard).
//  3. Executor contract: backpressure, queue-wait deadlines, drain on
//     shutdown, single-fire fault injection under threads.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "index/scan_guard.h"
#include "util/fault.h"

namespace csr {
namespace {

/// A query-worker pool of `threads` workers and a queue of `capacity`.
ExecutorConfig PoolConfig(uint32_t threads, size_t capacity) {
  ExecutorConfig cfg;
  cfg.num_threads = threads;
  cfg.queue_capacity = capacity;
  return cfg;
}

Corpus SmallCorpus(uint32_t docs = 3000, uint64_t seed = 77) {
  CorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 2000;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = seed;
  return CorpusGenerator(cfg).Generate().value();
}

/// A fixed mixed workload: single- and multi-keyword queries over
/// overlapping contexts, some view-answerable (context ⊆ {0,1,2,3} when
/// the fixture materializes that view), some not, some year-restricted.
std::vector<ContextQuery> FixedWorkload(const ContextSearchEngine& engine,
                                        size_t n) {
  const CorpusConfig& cc = engine.corpus().config;
  auto topical = [&](TermId concept_id, uint32_t j) {
    return CorpusGenerator::ConceptTopicalTerm(concept_id, j, cc.vocab_size,
                                               cc.topical_window);
  };
  std::vector<ContextQuery> queries;
  for (size_t i = 0; i < n; ++i) {
    TermId c = static_cast<TermId>(i % 8);
    ContextQuery q;
    q.keywords = {topical(c, static_cast<uint32_t>(i % 3))};
    if (i % 3 == 1) q.keywords.push_back(topical((c + 2) % 8, 0));
    q.context = {c};
    if (i % 4 == 2 && c + 4 < 12) {
      q.context.push_back(c + 4);  // two-predicate context, sorted
    }
    if (i % 5 == 3) q.years = YearRange{1990, 2005};
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectIdenticalResults(const Result<SearchResult>& a,
                            const Result<SearchResult>& b,
                            const std::string& label) {
  ASSERT_EQ(a.ok(), b.ok()) << label << ": " << (a.ok() ? b : a).status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << label;
    EXPECT_EQ(a.status().message(), b.status().message()) << label;
    return;
  }
  EXPECT_EQ(a->result_count, b->result_count) << label;
  EXPECT_EQ(a->stats.cardinality, b->stats.cardinality) << label;
  EXPECT_EQ(a->stats.df, b->stats.df) << label;
  ASSERT_EQ(a->top_docs.size(), b->top_docs.size()) << label;
  for (size_t r = 0; r < a->top_docs.size(); ++r) {
    EXPECT_EQ(a->top_docs[r].doc, b->top_docs[r].doc)
        << label << " rank " << r;
    // Bit-identical, not approximately equal: the executor must not
    // change the arithmetic.
    EXPECT_EQ(a->top_docs[r].score, b->top_docs[r].score)
        << label << " rank " << r;
  }
  EXPECT_EQ(a->metrics.degraded, b->metrics.degraded) << label;
  EXPECT_EQ(a->metrics.degraded_reason, b->metrics.degraded_reason) << label;
}

// ---------------------------------------------------------- differential

class ConcurrencyDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EngineConfig ecfg;
    ecfg.stats_cache_capacity = 32;
    engine_ = ContextSearchEngine::Build(SmallCorpus(), ecfg)
                  .value()
                  .release();
    ASSERT_TRUE(engine_->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}})
                    .ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static ContextSearchEngine* engine_;
};

ContextSearchEngine* ConcurrencyDifferentialTest::engine_ = nullptr;

TEST_F(ConcurrencyDifferentialTest, BatchMatchesSequentialAcrossThreads) {
  for (EvaluationMode mode : {EvaluationMode::kContextWithViews,
                              EvaluationMode::kContextStraightforward}) {
    std::vector<ContextQuery> queries = FixedWorkload(*engine_, 36);
    std::vector<Result<SearchResult>> sequential;
    sequential.reserve(queries.size());
    for (const ContextQuery& q : queries) {
      sequential.push_back(engine_->Search(q, mode));
    }
    for (uint32_t threads : {1u, 2u, 8u}) {
      QueryExecutor executor(engine_, PoolConfig(threads, 64));
      std::vector<Result<SearchResult>> batch =
          executor.SearchBatch(queries, mode);
      ASSERT_EQ(batch.size(), sequential.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ExpectIdenticalResults(
            sequential[i], batch[i],
            std::string(EvaluationModeName(mode)) + " query " +
                std::to_string(i) + " @" + std::to_string(threads) + "t");
      }
    }
  }
}

TEST_F(ConcurrencyDifferentialTest, BatchPreservesInputOrder) {
  std::vector<ContextQuery> queries = FixedWorkload(*engine_, 24);
  QueryExecutor executor(engine_, PoolConfig(4, 8));
  std::vector<Result<SearchResult>> batch =
      executor.SearchBatch(queries, EvaluationMode::kContextWithViews);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    // Result i must answer query i: its context cardinality matches a
    // direct evaluation of that query.
    auto direct =
        engine_->Search(queries[i], EvaluationMode::kContextWithViews);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(batch[i]->result_count, direct->result_count) << i;
  }
}

// Degradation reasons are part of the differential contract: a
// budget-tripped workload must degrade identically no matter how many
// threads execute it. The cache stays off so every run recomputes
// statistics and trips deterministically.
TEST(ConcurrencyDegradationTest, DegradationReasonsIdenticalUnderThreads) {
  EngineConfig ecfg;
  ecfg.posting_scan_budget = 300;  // small enough to trip broad contexts
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  std::vector<ContextQuery> queries = FixedWorkload(*engine, 24);
  std::vector<Result<SearchResult>> sequential;
  size_t degraded = 0;
  for (const ContextQuery& q : queries) {
    sequential.push_back(
        engine->Search(q, EvaluationMode::kContextStraightforward));
    const auto& r = sequential.back();
    if (r.ok() && r->metrics.degraded) ++degraded;
  }
  ASSERT_GT(degraded, 0u) << "workload never tripped the budget; the "
                             "differential would be vacuous";

  for (uint32_t threads : {2u, 8u}) {
    QueryExecutor executor(engine.get(), PoolConfig(threads, 64));
    std::vector<Result<SearchResult>> batch =
        executor.SearchBatch(queries, EvaluationMode::kContextStraightforward);
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectIdenticalResults(sequential[i], batch[i],
                             "degradation query " + std::to_string(i) + " @" +
                                 std::to_string(threads) + "t");
    }
  }
}

// ---------------------------------------------------------------- stress

TEST(ConcurrencyStressTest, TinyCacheEvictionChurn) {
  EngineConfig ecfg;
  ecfg.stats_cache_capacity = 4;  // far below the 12+ distinct contexts
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  constexpr size_t kQueries = 480;
  std::vector<ContextQuery> queries = FixedWorkload(*engine, kQueries);
  QueryExecutor executor(engine.get(), PoolConfig(8, 512));
  std::vector<Result<SearchResult>> results =
      executor.SearchBatch(queries, EvaluationMode::kContextStraightforward);

  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
  }
  const StatsCache* cache = engine->stats_cache();
  ASSERT_NE(cache, nullptr);
  // Every context-mode Search performs exactly one cache lookup; the
  // shard-mutexed counters must account for all of them.
  EXPECT_EQ(cache->hits() + cache->misses(), kQueries);
  EXPECT_LE(cache->size(), cache->capacity());
  EXPECT_GT(cache->evictions(), 0u) << "no churn: cache too large for test";

  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.submitted, kQueries);
  EXPECT_EQ(m.completed, kQueries);
  EXPECT_EQ(m.rejected, 0u);  // SearchBatch blocks instead of rejecting
  EXPECT_EQ(m.queue_depth, 0u);
}

// ------------------------------------------------------ executor contract

TEST(QueryExecutorTest, BackpressureRejectsWhenQueueFull) {
  auto engine = ContextSearchEngine::Build(SmallCorpus(), {}).value();
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 64);

  QueryExecutor executor(engine.get(), PoolConfig(1, 1));
  std::vector<std::future<Result<SearchResult>>> futures;
  for (const ContextQuery& q : queries) {
    futures.push_back(
        executor.SubmitSearch(q, EvaluationMode::kContextStraightforward));
  }
  size_t rejected = 0;
  size_t completed = 0;
  for (auto& f : futures) {
    Result<SearchResult> r = f.get();
    if (r.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << r.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, queries.size());
  // A 1-deep queue behind a 1-thread pool cannot absorb 64 back-to-back
  // submissions: at least some must bounce.
  EXPECT_GT(rejected, 0u);

  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.submitted, completed);
  EXPECT_EQ(m.rejected, rejected);
  EXPECT_EQ(m.completed, completed);
  EXPECT_LE(m.max_queue_depth, 1u);
}

TEST(QueryExecutorTest, ShutdownDrainsThenRejects) {
  auto engine = ContextSearchEngine::Build(SmallCorpus(), {}).value();
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 16);

  QueryExecutor executor(engine.get(), PoolConfig(2, 32));
  std::vector<std::future<Result<SearchResult>>> futures;
  for (const ContextQuery& q : queries) {
    futures.push_back(
        executor.SubmitSearch(q, EvaluationMode::kContextWithViews));
  }
  executor.Shutdown();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok()) << "queued work was dropped by Shutdown";
  }
  auto late = executor.SubmitSearch(queries[0],
                                    EvaluationMode::kContextWithViews);
  // kUnavailable, not kResourceExhausted: "down" must be distinguishable
  // from "overloaded" — a client backing off and resubmitting to a
  // shut-down executor would spin forever.
  EXPECT_EQ(late.get().status().code(), StatusCode::kUnavailable);
}

TEST(QueryExecutorTest, DeadlineIncludesQueueWait) {
  EngineConfig ecfg;
  ecfg.deadline_ms = 50;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  ContextQuery q = FixedWorkload(*engine, 1)[0];

  // A query whose deadline fully elapsed while queued is shed, typed.
  uint64_t before = engine->degradation().deadline_hits;
  auto shed = engine->Search(q, EvaluationMode::kContextStraightforward,
                             /*elapsed_ms=*/60.0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(shed.status().message().find("queue"), std::string::npos)
      << shed.status().message();
  EXPECT_EQ(engine->degradation().deadline_hits, before + 1);

  // Partially-consumed deadlines are charged to the guard: a queue wait
  // that already blew the deadline must trip on the FIRST Tick — the
  // deadline poll happens at tick 1, not only at the 64-tick stride — so
  // not a single posting is scanned on a query that is already too late.
  ScanGuard guard(50.0, 0, /*initial_elapsed_ms=*/60.0);
  EXPECT_TRUE(guard.Tick());
  EXPECT_EQ(guard.ticks(), 1u);
  EXPECT_EQ(guard.trip(), ScanGuard::Trip::kDeadline);
  std::string reason = guard.TripReason();
  EXPECT_NE(reason.find("queue wait"), std::string::npos) << reason;
  // Millisecond quantities are formatted with one decimal ("50.0"), not
  // the six-zero std::to_string default ("50.000000").
  EXPECT_NE(reason.find("50.0 ms"), std::string::npos) << reason;
  EXPECT_NE(reason.find("60.0 ms"), std::string::npos) << reason;
  EXPECT_EQ(reason.find("000000"), std::string::npos) << reason;

  // With no queue wait the same query finishes well inside 50 ms.
  auto fresh = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

// Metrics reader under load (the TSan case for the PR 5 torn-read audit):
// one thread polls MetricsSnapshot() — which runs the executor's sample
// callback through the locked ExecutorMetrics copy-out — while worker
// threads mutate those same fields on every dequeue/completion. Any bare
// field read in the export path is a data race TSan flags here. The
// quiescent snapshot at the end must agree exactly with the legacy
// accessors (the "registered into, not replaced by" contract).
TEST(ConcurrencyStressTest, MetricsReaderUnderLoad) {
  EngineConfig ecfg;
  ecfg.stats_cache_capacity = 8;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  constexpr size_t kQueries = 320;
  std::vector<ContextQuery> queries = FixedWorkload(*engine, kQueries);

  QueryExecutor executor(engine.get(), PoolConfig(4, 64));
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = engine->MetricsSnapshot();
      // Counters are monotone and the callback copies under the executor
      // mutex, so completions can never outrun submissions in a snapshot.
      EXPECT_LE(snap.counters["executor.completed"],
                snap.counters["executor.submitted"]);
      (void)executor.metrics();
      (void)engine->degradation().degraded_queries.load();
    }
  });
  std::vector<Result<SearchResult>> results =
      executor.SearchBatch(queries, EvaluationMode::kContextStraightforward);
  done.store(true, std::memory_order_relaxed);
  reader.join();
  executor.Shutdown();

  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Quiescent: registry view == legacy structs, name for name. The
  // executor has shut down, so its callback is unhooked — the engine's own
  // instruments must still hold every query.
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.submitted, kQueries);
  EXPECT_EQ(m.completed, kQueries);
  MetricsSnapshot snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.counters["engine.queries"], kQueries);
  EXPECT_EQ(snap.counters["engine.stats_cache.hits"],
            engine->stats_cache()->hits());
  EXPECT_EQ(snap.counters["engine.stats_cache.misses"],
            engine->stats_cache()->misses());
  EXPECT_EQ(snap.counters["engine.degradation.degraded_queries"],
            engine->degradation().degraded_queries.load());
  EXPECT_EQ(snap.counters["engine.plan.stats_cache_hits"],
            engine->stats_cache()->hits());
  EXPECT_EQ(snap.histograms["engine.latency.total_ms"].count, kQueries);
}

// One armed fault must fire exactly once no matter how many threads race
// through the injection point (the CAS single-fire contract of
// util/fault.h), so fault tests stay deterministic under the executor.
TEST(QueryExecutorTest, ArmedFaultFiresExactlyOnceAcrossThreads) {
  auto engine = ContextSearchEngine::Build(SmallCorpus(), {}).value();
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 32);

  uint64_t trips_before =
      FaultInjector::Instance().trips(FaultPoint::kPostingAdvance);
  ScopedFault fault(FaultPoint::kPostingAdvance, /*nth=*/1);

  QueryExecutor executor(engine.get(), PoolConfig(8, 64));
  std::vector<Result<SearchResult>> results =
      executor.SearchBatch(queries, EvaluationMode::kContextStraightforward);

  size_t degraded = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->metrics.degraded) {
      EXPECT_NE(r->metrics.degraded_reason.find("fault"), std::string::npos)
          << r->metrics.degraded_reason;
      ++degraded;
    }
  }
  EXPECT_EQ(degraded, 1u) << "one armed fault must degrade exactly one query";
  EXPECT_EQ(FaultInjector::Instance().trips(FaultPoint::kPostingAdvance),
            trips_before + 1);
  EXPECT_EQ(engine->degradation().fault_trips, 1u);
  EXPECT_EQ(engine->degradation().degraded_queries, 1u);
}

// Raw engine hammering without the executor: Search's own thread-safety
// (shared catalog reads, atomic telemetry, cache striping) under plain
// std::thread, including concurrent degradation-counter updates.
TEST(ConcurrencyStressTest, DirectSearchFromManyThreads) {
  EngineConfig ecfg;
  // Caches off: a stats-cache or context-set-cache hit skips budget ticks
  // (the stats phase's, or the context-set build's), so with a cache the
  // degraded-or-not outcome of a query would depend on timing-dependent
  // cache state and the counter check below would be meaningless.
  // Cache-churn concurrency is TinyCacheEvictionChurn's and
  // context_set_cache_test's job.
  ecfg.posting_scan_budget = 500;
  ecfg.context_set_cache_bytes = 0;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  ASSERT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 16);

  // With the cache off, each (query, mode) outcome is fully deterministic:
  // either ok (possibly degraded with a partial top-k) or a typed
  // kResourceExhausted when the budget trips before any document matched
  // (an empty partial is returned as an error, DESIGN.md §8). So the
  // concurrent phase must reproduce the sequential replay slot for slot.
  struct Outcome {
    bool ok = false;
    bool degraded = false;
    StatusCode code = StatusCode::kOk;
  };
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 30;
  std::vector<std::vector<Outcome>> outcomes(kThreads,
                                             std::vector<Outcome>(kRounds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds; ++i) {
        const ContextQuery& q = queries[(i + t) % queries.size()];
        EvaluationMode mode = (i % 2 == 0)
                                  ? EvaluationMode::kContextWithViews
                                  : EvaluationMode::kContextStraightforward;
        auto r = engine->Search(q, mode);
        Outcome& o = outcomes[t][i];
        o.ok = r.ok();
        o.degraded = r.ok() && r->metrics.degraded;
        o.code = r.status().code();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // degraded_queries is the sum of every per-result degraded flag; the
  // relaxed counters must not lose increments.
  size_t expect_degraded = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kRounds; ++i) {
      const ContextQuery& q = queries[(i + t) % queries.size()];
      EvaluationMode mode = (i % 2 == 0)
                                ? EvaluationMode::kContextWithViews
                                : EvaluationMode::kContextStraightforward;
      auto r = engine->Search(q, mode);
      const Outcome& o = outcomes[t][i];
      EXPECT_EQ(o.ok, r.ok()) << "thread " << t << " round " << i;
      EXPECT_EQ(o.code, r.status().code()) << "thread " << t << " round " << i;
      if (r.ok()) {
        EXPECT_EQ(o.degraded, r->metrics.degraded)
            << "thread " << t << " round " << i;
        if (r->metrics.degraded) ++expect_degraded;
      } else {
        // The only legal failure here is a budget trip with nothing
        // salvaged — typed, never kInternal.
        EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
            << r.status().ToString();
      }
    }
  }
  EXPECT_GT(expect_degraded, 0u) << "workload never tripped the budget";
  // The threaded phase ran the same (deterministic) workload once, so its
  // counter contribution equals the sequential replay's.
  EXPECT_EQ(engine->degradation().degraded_queries, 2 * expect_degraded);
}

}  // namespace
}  // namespace csr
