// Overload-resilience suite (ctest -L overload; the view-read storm cases
// also make it part of ctest -L fault, and it runs in the TSan lane).
// Covers the serving QoS stack of DESIGN.md §13:
//
//  1. Retry primitives: decorrelated-jitter backoff, the global retry
//     budget's withdraw/deposit accounting, and the circuit breaker's
//     closed → open → half-open → closed state machine.
//  2. WFQ admission: weighted service shares under backlog, no banked
//     credit for idle tenants, typed kResourceExhausted rejections with a
//     retry_after_ms hint, and the AIMD limiter reacting to its windowed
//     p99 against the SLO.
//  3. Executor integration: per-tenant counters, shed queries surfacing
//     as typed errors (never a partial result dressed up as complete),
//     and the admission.*/retry.*/breaker.* metric names round-tripping
//     through MetricsSnapshot JSON.
//  4. Differential under fault storm: with a seeded 10% view-read fault
//     rate, every admitted query's docs and scores stay bit-identical to
//     a sequential no-fault baseline — retries, breaker fallbacks, and
//     concurrency may change the plan, never the arithmetic. The storm
//     and breaker cases run once per view source (offline catalog,
//     adaptive cache), since both pass the same gate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/admission.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "util/fault.h"
#include "util/retry.h"

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

/// Mixed workload over contexts covered by the {0,1,2,3} view and not.
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
    if (i % 4 == 2 && c + 4 < 12) q.context.push_back(c + 4);
    queries.push_back(std::move(q));
  }
  return queries;
}

// -------------------------------------------------------- retry budget

TEST(RetryBudgetTest, WithdrawDepositAccounting) {
  RetryBudget budget(/*capacity=*/2.0, /*deposit_per_success=*/0.5);
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  // Drained: fail fast, count the denial.
  EXPECT_FALSE(budget.TryWithdraw());
  EXPECT_EQ(budget.withdrawals(), 2u);
  EXPECT_EQ(budget.denials(), 1u);
  // Two successes deposit one token back.
  budget.Deposit();
  budget.Deposit();
  EXPECT_EQ(budget.deposits(), 2u);
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
  // Deposits clamp at capacity.
  for (int i = 0; i < 100; ++i) budget.Deposit();
  EXPECT_DOUBLE_EQ(budget.tokens(), budget.capacity());
}

TEST(RetryBudgetTest, BackoffIsBoundedAndSeedDeterministic) {
  RetryPolicy policy{/*max_attempts=*/5, /*base_ms=*/0.5, /*cap_ms=*/4.0};
  DecorrelatedJitterBackoff a(policy, /*seed=*/99);
  DecorrelatedJitterBackoff b(policy, /*seed=*/99);
  DecorrelatedJitterBackoff c(policy, /*seed=*/100);
  bool any_differs = false;
  for (int i = 0; i < 50; ++i) {
    double da = a.NextDelayMs();
    EXPECT_GE(da, policy.base_ms);
    EXPECT_LE(da, policy.cap_ms);
    EXPECT_DOUBLE_EQ(da, b.NextDelayMs());  // same seed, same schedule
    if (da != c.NextDelayMs()) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

// ------------------------------------------------------ circuit breaker

TEST(CircuitBreakerTest, TripsOnlyOnConsecutiveFailures) {
  CircuitBreaker breaker;
  breaker.Configure({/*failure_threshold=*/3, /*open_ms=*/60000.0,
                     /*half_open_probes=*/1});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnFailure();
  breaker.OnFailure();
  breaker.OnSuccess();  // resets the streak
  breaker.OnFailure();
  breaker.OnFailure();
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.trips(), 0u);
  breaker.OnFailure();  // third consecutive
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  // Open and well inside the cooldown: requests short-circuit.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.short_circuits(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseOnSuccess) {
  CircuitBreaker breaker;
  breaker.Configure({/*failure_threshold=*/1, /*open_ms=*/5.0,
                     /*half_open_probes=*/2});
  breaker.OnFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  SleepForMillis(10.0);
  // Cooldown over: exactly the configured number of probes pass.
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());  // probe slots exhausted
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.OnSuccess();
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.recoveries(), 1u);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  CircuitBreaker breaker;
  breaker.Configure({/*failure_threshold=*/1, /*open_ms=*/5.0,
                     /*half_open_probes=*/2});
  breaker.OnFailure();
  SleepForMillis(10.0);
  EXPECT_TRUE(breaker.Allow());
  breaker.OnFailure();  // the probe itself fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.recoveries(), 0u);
}

// -------------------------------------------------------- WFQ admission

TEST(AdmissionTest, BackloggedTenantsServedByWeight) {
  AdmissionConfig config;
  config.tenants = {{"heavy", 3.0, 128}, {"light", 1.0, 128}};
  AdmissionController admission(config, /*num_threads=*/1);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(admission.TryAdmit(0).ok());
    ASSERT_TRUE(admission.TryAdmit(1).ok());
  }
  int served[2] = {0, 0};
  for (int i = 0; i < 40; ++i) {
    size_t t = admission.BeginDispatch();
    served[t]++;
    admission.OnComplete(t, 1.0, /*shed=*/false);
  }
  // Virtual-time WFQ under full backlog is exact, not approximate.
  EXPECT_EQ(served[0], 30);
  EXPECT_EQ(served[1], 10);
}

TEST(AdmissionTest, IdleTenantRejoinsWithoutBankedCredit) {
  AdmissionConfig config;
  config.tenants = {{"busy", 1.0, 128}, {"idle", 1.0, 128}};
  AdmissionController admission(config, /*num_threads=*/1);
  // "busy" runs alone for a while, advancing virtual time.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(admission.TryAdmit(0).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(admission.BeginDispatch(), 0u);
    admission.OnComplete(0, 1.0, false);
  }
  // "idle" arrives late: it must share from here on, not burst through
  // the service it never requested.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(admission.TryAdmit(1).ok());
  int idle_served = 0;
  for (int i = 0; i < 10; ++i) {
    size_t t = admission.BeginDispatch();
    if (t == 1) idle_served++;
    admission.OnComplete(t, 1.0, false);
  }
  EXPECT_LE(idle_served, 5);
  EXPECT_GE(idle_served, 1);
}

TEST(AdmissionTest, FullQueueRejectsTypedWithRetryHint) {
  AdmissionConfig config;
  config.tenants = {{"t", 1.0, /*queue_capacity=*/2}};
  AdmissionController admission(config, 1);
  ASSERT_TRUE(admission.TryAdmit(0).ok());
  ASSERT_TRUE(admission.TryAdmit(0).ok());
  EXPECT_FALSE(admission.CanAdmit(0));
  Status rejected = admission.TryAdmit(0);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(rejected.retry_after_ms(), 0.0);
  EXPECT_NE(rejected.message().find("queue full"), std::string::npos);
}

TEST(AdmissionTest, AimdLimiterShrinksOnSloMissAndProbesBack) {
  AdmissionConfig config;
  config.slo_ms = 10.0;
  config.min_concurrency = 1;
  config.adapt_interval = 4;
  AdmissionController admission(config, /*num_threads=*/8);
  ASSERT_EQ(admission.limit(), 8u);

  auto run_window = [&](double e2e_ms) {
    for (uint32_t i = 0; i < config.adapt_interval; ++i) {
      ASSERT_TRUE(admission.TryAdmit(0).ok());
      ASSERT_EQ(admission.BeginDispatch(), 0u);
      admission.OnComplete(0, e2e_ms, false);
    }
  };

  run_window(50.0);  // p99 well past the SLO
  EXPECT_EQ(admission.limit(), 5u);  // floor(8 * 0.7)
  run_window(50.0);
  EXPECT_EQ(admission.limit(), 3u);
  AdmissionSnapshot snap = admission.snapshot();
  EXPECT_EQ(snap.limit_decreases, 2u);
  EXPECT_GT(snap.window_p99_ms, config.slo_ms);

  // Healthy latencies: additive probe back up, one step per window.
  run_window(1.0);
  EXPECT_EQ(admission.limit(), 4u);
  run_window(1.0);
  EXPECT_EQ(admission.limit(), 5u);
  EXPECT_GE(admission.snapshot().limit_increases, 2u);

  // The limiter never leaves [min_concurrency, num_threads].
  for (int w = 0; w < 20; ++w) run_window(50.0);
  EXPECT_EQ(admission.limit(), config.min_concurrency);
  for (int w = 0; w < 20; ++w) run_window(1.0);
  EXPECT_EQ(admission.limit(), 8u);
}

// ------------------------------------------------- executor integration

ExecutorConfig TwoTenantConfig() {
  ExecutorConfig config;
  config.num_threads = 2;
  config.admission.tenants = {{"paid", 2.0, 64}, {"free", 1.0, 64}};
  return config;
}

TEST(ExecutorTenantTest, PerTenantCountersAndUnknownTenantFallback) {
  auto engine = ContextSearchEngine::Build(SmallCorpus(), {}).value();
  QueryExecutor executor(engine.get(), TwoTenantConfig());
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 12);
  std::vector<std::future<Result<SearchResult>>> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    // Unknown tenants map to the first configured tenant rather than
    // silently minting unbounded new queues.
    const char* tenant = i % 3 == 0 ? "paid" : i % 3 == 1 ? "free" : "bogus";
    futures.push_back(executor.SubmitSearch(
        queries[i], EvaluationMode::kContextWithViews, tenant));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  AdmissionSnapshot snap = executor.admission();
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[0].name, "paid");
  EXPECT_EQ(snap.tenants[0].admitted, 8u);  // own 4 + 4 from "bogus"
  EXPECT_EQ(snap.tenants[1].admitted, 4u);
  EXPECT_EQ(snap.admitted, 12u);
  EXPECT_EQ(snap.completed, 12u);
  EXPECT_EQ(snap.inflight, 0u);
}

TEST(ExecutorTenantTest, ShedQueryIsTypedErrorNeverPartialSuccess) {
  Corpus corpus = SmallCorpus();
  // Ground truth from a deadline-free engine over the same corpus: its
  // Search never sheds or degrades, so its rankings are the full answer.
  auto truth_engine = ContextSearchEngine::Build(corpus, {}).value();
  ASSERT_TRUE(
      truth_engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());

  EngineConfig ecfg;
  // A deadline shorter than any realistic queue wait: on one worker,
  // everything behind the head of the queue sheds.
  ecfg.deadline_ms = 0.05;
  auto engine = ContextSearchEngine::Build(std::move(corpus), ecfg).value();
  ASSERT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
  QueryExecutor executor(engine.get(), PoolConfig(1, 256));
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 64);
  auto batch =
      executor.SearchBatch(queries, EvaluationMode::kContextWithViews);

  uint64_t deadline_failures = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].ok()) {
      // A shed query is a typed failure carrying no result at all —
      // the degradation ladder must not dress a partial ranking up as
      // a complete answer.
      EXPECT_EQ(batch[i].status().code(), StatusCode::kDeadlineExceeded);
      deadline_failures++;
      continue;
    }
    const SearchResult& r = batch[i].value();
    if (!r.metrics.degraded) {
      // Served in full: must match the unloaded ground truth exactly.
      auto direct = truth_engine->Search(queries[i],
                                         EvaluationMode::kContextWithViews);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(r.result_count, direct->result_count) << i;
      ASSERT_EQ(r.top_docs.size(), direct->top_docs.size()) << i;
      for (size_t k = 0; k < r.top_docs.size(); ++k) {
        EXPECT_EQ(r.top_docs[k].doc, direct->top_docs[k].doc);
        EXPECT_EQ(r.top_docs[k].score, direct->top_docs[k].score);
      }
    } else {
      // Degraded results must say so.
      EXPECT_FALSE(r.metrics.degraded_reason.empty()) << i;
    }
  }
  EXPECT_GE(deadline_failures, 1u);
  AdmissionSnapshot snap = executor.admission();
  // The executor's shed classification (deadline consumed while queued)
  // is a subset of all deadline failures; a query can also blow its
  // deadline mid-execution.
  EXPECT_LE(snap.shed, deadline_failures);
  EXPECT_GE(snap.shed, 1u);
  EXPECT_EQ(snap.completed, 64u);  // shed queries still release slots
}

TEST(ExecutorTenantTest, QosMetricNamesRoundTripThroughSnapshotJson) {
  RetryBudget::Global().Reset();
  auto engine = ContextSearchEngine::Build(SmallCorpus(), {}).value();
  QueryExecutor executor(engine.get(), TwoTenantConfig());
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 8);
  executor.SearchBatch(queries, EvaluationMode::kContextWithViews, "paid");

  MetricsSnapshot snap = engine->MetricsSnapshot();
  for (const char* counter :
       {"admission.admitted", "admission.rejected", "admission.completed",
        "admission.shed", "admission.limit_increases",
        "admission.limit_decreases", "admission.tenant.paid.admitted",
        "admission.tenant.paid.rejected", "admission.tenant.free.completed",
        "admission.tenant.free.shed", "retry.withdrawals", "retry.denials",
        "retry.deposits", "breaker.trips", "breaker.recoveries",
        "breaker.short_circuits", "breaker.probes"}) {
    EXPECT_TRUE(snap.counters.count(counter)) << counter;
  }
  for (const char* gauge :
       {"admission.limit", "admission.inflight", "admission.window_p99_ms",
        "admission.slo_ms", "admission.tenant.paid.depth",
        "admission.tenant.free.weight", "retry.tokens", "retry.capacity",
        "breaker.state"}) {
    EXPECT_TRUE(snap.gauges.count(gauge)) << gauge;
  }
  EXPECT_EQ(snap.counters["admission.tenant.paid.admitted"], 8u);
  EXPECT_DOUBLE_EQ(snap.gauges["breaker.state"], 0.0);  // closed

  // The names survive JSON export verbatim (dashboards key on them).
  std::string json = engine->MetricsSnapshot().ToJson();
  for (const char* name :
       {"admission.tenant.paid.depth", "admission.limit",
        "retry.tokens", "breaker.state"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << name;
  }
}

// --------------------------------------- fault storm, bit-for-bit scores

// The two sources of the with-views plan. Both pass the same breaker /
// retry-budget / kViewRead gate, so every storm case runs against each.
enum class ViewSource { kOfflineCatalog, kAdaptiveCache };

std::string ViewSourceName(const testing::TestParamInfo<ViewSource>& info) {
  return info.param == ViewSource::kOfflineCatalog ? "OfflineCatalog"
                                                   : "AdaptiveCache";
}

class FaultStormTest : public testing::TestWithParam<ViewSource> {
 protected:
  bool adaptive() const { return GetParam() == ViewSource::kAdaptiveCache; }

  /// The default config, plus the adaptive cache when it is the source.
  EngineConfig Config() const {
    EngineConfig ecfg;
    if (adaptive()) {
      ecfg.adaptive_view_budget_bytes = 8ull << 20;
      ecfg.adaptive_min_score_ms = 0.00001;  // one miss funds an install
      ecfg.adaptive_cooldown_steps = 1;
    }
    return ecfg;
  }

  /// Installs the views `queries` are answered from: the {0,1,2,3}
  /// catalog view, or — with no catalog at all — adaptive views warmed by
  /// one miss per context and AdaptiveStep until the cache settles.
  void InstallViews(ContextSearchEngine& engine,
                    const std::vector<ContextQuery>& queries) const {
    if (!adaptive()) {
      ASSERT_TRUE(
          engine.MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
      return;
    }
    for (const ContextQuery& q : queries) {
      ASSERT_TRUE(engine.Search(q, EvaluationMode::kContextWithViews).ok());
    }
    for (int i = 0; i < 64; ++i) {
      if (!engine.AdaptiveStep()) break;
    }
  }

  /// True when `r` was answered from this case's view source.
  bool FromSource(const SearchResult& r) const {
    return r.metrics.used_view && r.metrics.used_adaptive_view == adaptive();
  }
};

INSTANTIATE_TEST_SUITE_P(ViewSources, FaultStormTest,
                         testing::Values(ViewSource::kOfflineCatalog,
                                         ViewSource::kAdaptiveCache),
                         ViewSourceName);

TEST_P(FaultStormTest, StormScoresBitIdenticalToSequentialBaseline) {
  RetryBudget::Global().Reset();
  EngineConfig ecfg = Config();
  ecfg.view_breaker.failure_threshold = 2;
  ecfg.view_breaker.open_ms = 5.0;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  // Enough view-served queries that the seeded storm reaches its first
  // faulting draw on either source.
  std::vector<ContextQuery> queries = FixedWorkload(*engine, 96);
  ASSERT_NO_FATAL_FAILURE(InstallViews(*engine, queries));

  // Sequential no-fault baseline first: the ground truth ranking.
  std::vector<Result<SearchResult>> baseline;
  size_t from_source = 0;
  for (const ContextQuery& q : queries) {
    baseline.push_back(engine->Search(q, EvaluationMode::kContextWithViews));
    if (baseline.back().ok() && FromSource(baseline.back().value())) {
      ++from_source;
    }
  }
  ASSERT_GT(from_source, queries.size() / 3);

  // Deterministic 10% view-read fault storm under a concurrent executor.
  // Whatever mix of retries, degraded fallbacks, and breaker
  // short-circuits each query experiences, views are exact aggregates:
  // docs and scores must not move by a single bit.
  const uint64_t faults_before = engine->degradation().view_read_faults;
  std::vector<Result<SearchResult>> stormed;
  {
    ScopedFaultRate storm(FaultPoint::kViewRead, 0.10, /*seed=*/0x57042);
    QueryExecutor executor(engine.get(), PoolConfig(4, 256));
    stormed = executor.SearchBatch(queries, EvaluationMode::kContextWithViews);
  }
  // The storm reached this source's view reads.
  EXPECT_GT(engine->degradation().view_read_faults, faults_before);

  ASSERT_EQ(stormed.size(), baseline.size());
  for (size_t i = 0; i < stormed.size(); ++i) {
    ASSERT_EQ(stormed[i].ok(), baseline[i].ok()) << i;
    if (!stormed[i].ok()) continue;
    const SearchResult& a = stormed[i].value();
    const SearchResult& b = baseline[i].value();
    EXPECT_EQ(a.result_count, b.result_count) << i;
    ASSERT_EQ(a.top_docs.size(), b.top_docs.size()) << i;
    for (size_t k = 0; k < a.top_docs.size(); ++k) {
      EXPECT_EQ(a.top_docs[k].doc, b.top_docs[k].doc) << i << "@" << k;
      EXPECT_EQ(a.top_docs[k].score, b.top_docs[k].score) << i << "@" << k;
    }
  }
  RetryBudget::Global().Reset();
}

TEST_P(FaultStormTest, BreakerShortCircuitIsExactAndNotDegraded) {
  RetryBudget::Global().Reset();
  EngineConfig ecfg = Config();
  // One unretried failure trips the breaker; a long cooldown keeps it
  // open for the rest of the test.
  ecfg.view_retry.max_attempts = 1;
  ecfg.view_breaker.failure_threshold = 1;
  ecfg.view_breaker.open_ms = 60000.0;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  ContextQuery q = FixedWorkload(*engine, 1)[0];
  ASSERT_NO_FATAL_FAILURE(InstallViews(*engine, {q}));
  auto via_view = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(via_view.ok());
  ASSERT_TRUE(FromSource(*via_view));

  {
    // A single injected fault: this query degrades to the
    // straightforward plan and trips the breaker.
    ScopedFault fault(FaultPoint::kViewRead);
    auto faulted = engine->Search(q, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(faulted.ok());
    EXPECT_TRUE(faulted->metrics.degraded);
    EXPECT_TRUE(faulted->metrics.fell_back_to_straightforward);
    EXPECT_FALSE(faulted->metrics.used_view);
    EXPECT_FALSE(faulted->metrics.used_adaptive_view);
  }
  ASSERT_EQ(engine->view_breaker().state(), CircuitBreaker::State::kOpen);

  // Breaker open, no fault armed: the engine short-circuits to the
  // straightforward plan. That is a plan choice, not degradation — views
  // are exact aggregates, so the answer is bit-identical.
  auto short_circuited = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(short_circuited.ok());
  EXPECT_FALSE(short_circuited->metrics.used_view);
  EXPECT_TRUE(short_circuited->metrics.fell_back_to_straightforward);
  EXPECT_FALSE(short_circuited->metrics.degraded);
  EXPECT_EQ(short_circuited->result_count, via_view->result_count);
  ASSERT_EQ(short_circuited->top_docs.size(), via_view->top_docs.size());
  for (size_t k = 0; k < via_view->top_docs.size(); ++k) {
    EXPECT_EQ(short_circuited->top_docs[k].doc, via_view->top_docs[k].doc);
    EXPECT_EQ(short_circuited->top_docs[k].score,
              via_view->top_docs[k].score);
  }
  EXPECT_GE(engine->view_breaker().short_circuits(), 1u);
  RetryBudget::Global().Reset();
}

}  // namespace
}  // namespace csr
