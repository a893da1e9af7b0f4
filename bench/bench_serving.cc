// Overload-resilience bench for the serving path (DESIGN.md §13).
//
// Four phases against one engine:
//
//   1. calibrate   closed-loop capacity of the worker pool (QPS ceiling).
//   2. capacity    open-loop Poisson arrivals at 0.7x capacity, four
//                  tenants — the healthy-load baseline for goodput.
//   3. overload    open-loop Poisson + bursty arrivals at 4x capacity.
//                  Per-tenant admission must keep admitted-query p99
//                  within the SLO, hold goodput near capacity, and split
//                  service by the configured WFQ weights.
//   4. fault storm seeded view-read faults under load: 10% flakiness
//                  (the retry budget absorbs it), then a full outage
//                  (the budget drains, the circuit breaker trips to the
//                  straightforward plan), then disarmed (half-open
//                  probes close the breaker).
//   5. pipeline    staged pipeline executor vs per-query workers on a
//                  shared-hot-context pool: QPS, p99, blocks decoded
//                  per query, and the intersect-stage batch histogram.
//   6. adaptive    online view selection (DESIGN.md §17) on its own
//                  engine with NO offline catalog: a Zipf context
//                  workload whose hot set drifts, a cold-start warmup
//                  curve, steady-state hit rate under a budget sized
//                  (from measured view bytes) to hold only about half
//                  the working set, a hot-context stampede, and the
//                  adaptive-vs-straightforward QPS ratio with top-k
//                  verified bit-identical.
//
// Emits BENCH_serving.json with --json; tools/check_bench_regression.py
// --serving-bench gates goodput, p99-vs-SLO, tenant share drift, and the
// breaker trip/recover cycle; --adaptive-bench gates the phase-6 hit
// rate, budget ceiling, QPS ratio, and top-k equality.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "engine/executor.h"
#include "eval/query_gen.h"
#include "index/codec.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/retry.h"

namespace csr::bench {
namespace {

constexpr uint64_t kStormSeed = 0x57042;

double EnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// One scheduled open-loop arrival.
struct Arrival {
  double t_s = 0.0;   // offset from phase start
  size_t tenant = 0;
  size_t query = 0;   // index into the query pool
};

/// Outcome counts for a load phase (open- or closed-loop).
struct PhaseStats {
  uint64_t issued = 0;
  uint64_t ok = 0;        // successful results (degraded included)
  uint64_t good = 0;      // ok AND end-to-end latency within the SLO
  uint64_t degraded = 0;  // ok but served on a degraded plan
  uint64_t rejected = 0;  // kResourceExhausted at admission
  uint64_t shed = 0;      // kDeadlineExceeded (deadline consumed queueing)
  uint64_t failed = 0;    // any other error
  std::vector<double> ok_latency_ms;
  double wall_s = 0.0;

  double goodput_qps() const {
    return wall_s > 0 ? static_cast<double>(good) / wall_s : 0.0;
  }
  void Absorb(const Result<SearchResult>& r, double lat_ms, double slo_ms) {
    issued++;
    if (r.ok()) {
      ok++;
      ok_latency_ms.push_back(lat_ms);
      if (lat_ms <= slo_ms) good++;
      if (r.value().metrics.degraded) degraded++;
    } else if (r.status().code() == StatusCode::kResourceExhausted) {
      rejected++;
    } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
      shed++;
    } else {
      failed++;
    }
  }
};

/// Poisson + bursty arrival schedule: exponential interarrivals whose rate
/// is modulated 0.875x/1.5x on a 500 ms period with a 20% burst duty
/// cycle (mean exactly `rate_qps`). Tenants are drawn from `tenant_cdf`,
/// queries Zipf(s=1)-skewed over the pool — a few hot contexts dominate.
std::vector<Arrival> MakeSchedule(double rate_qps, double duration_s,
                                  bool bursty,
                                  const std::vector<double>& tenant_cdf,
                                  size_t pool_size, uint64_t seed) {
  SplitMix64 rng(seed);
  ZipfDistribution zipf(pool_size, 1.0);
  std::vector<Arrival> out;
  double t = 0.0;
  while (t < duration_s) {
    double phase = std::fmod(t, 0.5);
    double rate = rate_qps * (bursty ? (phase < 0.1 ? 1.5 : 0.875) : 1.0);
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    Arrival a;
    a.t_s = t;
    double u = rng.NextDouble();
    while (a.tenant + 1 < tenant_cdf.size() && u > tenant_cdf[a.tenant]) {
      a.tenant++;
    }
    a.query = zipf.Sample(rng);
    out.push_back(a);
  }
  return out;
}

/// Runs an open-loop phase: a dispatcher thread submits on the arrival
/// schedule (never blocking — rejection is the backpressure signal), and
/// one collector thread per tenant measures submit-to-completion latency.
/// Within a tenant, dispatch is FIFO, so the head-of-queue get() measures
/// true end-to-end latency up to worker-interleaving jitter.
PhaseStats RunOpenLoop(QueryExecutor& executor,
                       const std::vector<ContextQuery>& pool,
                       const std::vector<std::string>& tenant_names,
                       const std::vector<Arrival>& schedule, double slo_ms) {
  struct Pending {
    std::future<Result<SearchResult>> fut;
    WallTimer timer;
  };
  struct Collector {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> q;
    bool done = false;
    PhaseStats stats;
  };
  std::vector<Collector> collectors(tenant_names.size());

  std::vector<std::thread> threads;
  threads.reserve(collectors.size());
  for (Collector& c : collectors) {
    threads.emplace_back([&c, slo_ms] {
      for (;;) {
        std::unique_lock<std::mutex> lock(c.mu);
        c.cv.wait(lock, [&c] { return !c.q.empty() || c.done; });
        if (c.q.empty()) return;
        Pending p = std::move(c.q.front());
        c.q.pop_front();
        lock.unlock();
        Result<SearchResult> r = p.fut.get();
        c.stats.Absorb(r, p.timer.ElapsedMillis(), slo_ms);
      }
    });
  }

  WallTimer wall;
  for (const Arrival& a : schedule) {
    while (wall.ElapsedSeconds() < a.t_s) SleepForMillis(0.2);
    Pending p;
    p.timer.Restart();
    p.fut = executor.SubmitSearch(pool[a.query],
                                  EvaluationMode::kContextWithViews,
                                  tenant_names[a.tenant]);
    Collector& c = collectors[a.tenant];
    {
      std::lock_guard<std::mutex> lock(c.mu);
      c.q.push_back(std::move(p));
    }
    c.cv.notify_one();
  }
  for (Collector& c : collectors) {
    std::lock_guard<std::mutex> lock(c.mu);
    c.done = true;
    c.cv.notify_one();
  }
  for (std::thread& t : threads) t.join();

  PhaseStats total;
  total.wall_s = wall.ElapsedSeconds();
  for (Collector& c : collectors) {
    total.issued += c.stats.issued;
    total.ok += c.stats.ok;
    total.good += c.stats.good;
    total.degraded += c.stats.degraded;
    total.rejected += c.stats.rejected;
    total.shed += c.stats.shed;
    total.failed += c.stats.failed;
    total.ok_latency_ms.insert(total.ok_latency_ms.end(),
                               c.stats.ok_latency_ms.begin(),
                               c.stats.ok_latency_ms.end());
  }
  return total;
}

/// A pool of `threads` query workers behind a 1024-deep queue.
ExecutorConfig PoolConfig(uint32_t threads, AdmissionConfig admission = {}) {
  ExecutorConfig cfg;
  cfg.num_threads = threads;
  cfg.queue_capacity = 1024;
  cfg.admission = std::move(admission);
  return cfg;
}

/// Closed-loop batch through the executor, classifying every result.
/// Submits in small chunks: handing the executor the whole pool at once
/// would give the tail a queue wait past the engine deadline, and the
/// deadline shed would be an artifact of the harness, not of load.
void RunBatch(QueryExecutor& executor, std::span<const ContextQuery> queries,
              double slo_ms, PhaseStats* stats,
              EvaluationMode mode = EvaluationMode::kContextWithViews) {
  const size_t kChunk = 16;
  for (size_t base = 0; base < queries.size(); base += kChunk) {
    size_t n = std::min(kChunk, queries.size() - base);
    WallTimer wall;
    auto results = executor.SearchBatch(queries.subspan(base, n), mode);
    double per_query = wall.ElapsedMillis() / std::max<size_t>(1, n);
    for (const auto& r : results) stats->Absorb(r, per_query, slo_ms);
  }
}

/// The staged executor's three stages, by name, in pipeline order.
std::array<std::pair<const char*, const PipelineStageMetrics*>, 3>
PipelineStages(const PipelineMetrics& m) {
  return {{{"parse", &m.parse},
           {"intersect", &m.intersect},
           {"score", &m.score}}};
}

double StageBusyPerQuery(const PipelineStageMetrics& st) {
  return st.processed > 0
             ? st.busy_ms_total / static_cast<double>(st.processed)
             : 0.0;
}

/// Share of the stage's worker time spent executing work since the
/// executor started (1.0 = every worker busy the whole time).
double StageOccupancy(const PipelineStageMetrics& st, double uptime_ms) {
  double capacity = uptime_ms * static_cast<double>(st.workers);
  return capacity > 0 ? st.busy_ms_total / capacity : 0.0;
}

void EmitPhase(JsonWriter& json, const PhaseStats& s, double slo_ms) {
  std::vector<double> lat = s.ok_latency_ms;
  json.Field("issued", s.issued);
  json.Field("ok", s.ok);
  json.Field("good_within_slo", s.good);
  json.Field("degraded", s.degraded);
  json.Field("rejected", s.rejected);
  json.Field("shed", s.shed);
  json.Field("failed", s.failed);
  json.Field("wall_s", s.wall_s);
  json.Field("goodput_qps", s.goodput_qps());
  json.Field("admitted_p50_ms", Percentile(lat, 0.50));
  json.Field("admitted_p99_ms", Percentile(lat, 0.99));
  json.Field("slo_ms", slo_ms);
}

int Main(int argc, char** argv) {
  std::string json_path = TakeJsonFlag(&argc, argv);
  uint32_t num_docs = BenchNumDocs();
  uint32_t threads =
      static_cast<uint32_t>(EnvDouble("CSR_BENCH_THREADS", 2));
  double slo_ms = EnvDouble("CSR_BENCH_SLO_MS", 50.0);
  double duration_s = EnvDouble("CSR_BENCH_DURATION_S", 2.5);

  EngineConfig ecfg;
  // End-to-end deadline below the SLO so an admitted query that barely
  // beats the deadline check still finishes inside the SLO; the stats
  // cache stays off so every view-path query actually reads the view
  // (the fault storm needs real view reads to inject into).
  ecfg.deadline_ms = 0.8 * slo_ms;
  ecfg.view_breaker.failure_threshold = 2;
  ecfg.view_breaker.open_ms = 50.0;
  ecfg.view_breaker.half_open_probes = 2;
  auto engine = BuildBenchEngine(num_docs, ecfg);

  // Query pools: the serving mix spans contexts above and below T_C; the
  // storm pool is all large contexts so every query exercises the
  // view-read path the faults are armed on.
  WorkloadGenerator gen(engine.get(), 4242);
  std::vector<ContextQuery> mix_pool;
  for (uint32_t nk = 2; nk <= 3; ++nk) {
    for (auto& wq : gen.Generate(50, nk, 0, 0, 100000)) {
      mix_pool.push_back(std::move(wq.query));
    }
  }
  gen.set_lift_to_roots(true);
  std::vector<ContextQuery> view_pool;
  for (uint32_t nk = 2; nk <= 3; ++nk) {
    for (auto& wq :
         gen.Generate(50, nk, engine->context_threshold(), 0, 100000)) {
      view_pool.push_back(std::move(wq.query));
      mix_pool.push_back(view_pool.back());
    }
  }
  if (mix_pool.empty() || view_pool.empty()) {
    std::fprintf(stderr, "workload generation came up empty\n");
    return 1;
  }

  // The storm is only meaningful if its queries actually read views
  // (FaultPoint::kViewRead sits on the view scan), so probe each large
  // -context candidate once and keep the view-answerable ones. At small
  // corpus scales the advisor may select views whose contexts the
  // generator never lands on; fall back to queries aimed at the
  // catalog's own view definitions (context = the view's full column
  // set, which the view covers by construction).
  auto uses_view = [&](const ContextQuery& q) {
    auto r = engine->Search(q, EvaluationMode::kContextWithViews);
    return r.ok() && r->metrics.used_view;
  };
  std::vector<ContextQuery> storm_pool;
  for (const ContextQuery& q : view_pool) {
    if (uses_view(q)) storm_pool.push_back(q);
  }
  if (storm_pool.empty()) {
    const ViewCatalog& catalog = engine->catalog();
    for (size_t i = 0; i < catalog.size(); ++i) {
      ContextQuery q = view_pool[i % view_pool.size()];
      q.context = catalog.view(i).def().keyword_columns;
      q.years = {};
      if (uses_view(q)) storm_pool.push_back(std::move(q));
    }
  }
  if (storm_pool.empty()) {
    std::fprintf(stderr,
                 "no view-answerable storm queries (catalog has %zu views); "
                 "fault storm cannot exercise the view-read path\n",
                 engine->catalog().size());
    return 1;
  }
  // Pad the pool so each storm pass draws enough view reads for the
  // breaker's consecutive-failure statistics to be reliable.
  const size_t distinct_storm = storm_pool.size();
  while (storm_pool.size() < 120) {
    storm_pool.push_back(storm_pool[storm_pool.size() % distinct_storm]);
  }
  std::fprintf(stderr, "# storm pool: %zu distinct view-answerable queries "
               "(padded to %zu)\n", distinct_storm, storm_pool.size());

  // --- Phase 1: closed-loop capacity calibration -------------------------
  double capacity_qps = 0.0;
  double mean_exec_ms = 0.0;
  {
    QueryExecutor executor(engine.get(), PoolConfig(threads));
    PhaseStats warm;
    RunBatch(executor, mix_pool, slo_ms, &warm);
    WallTimer timer;
    PhaseStats timed;
    const int kPasses = 3;
    for (int pass = 0; pass < kPasses; ++pass) {
      RunBatch(executor, mix_pool, slo_ms, &timed);
    }
    double secs = timer.ElapsedSeconds();
    capacity_qps = static_cast<double>(timed.ok) / secs;
    ExecutorMetrics m = executor.metrics();
    mean_exec_ms = m.exec_ms_total / std::max<uint64_t>(1, m.completed);
  }
  if (capacity_qps <= 0.0) {
    std::fprintf(stderr, "calibration measured zero capacity\n");
    return 1;
  }
  std::printf("=== Serving under overload (%u docs, %u workers) ===\n\n",
              num_docs, threads);
  std::printf("capacity: %.0f qps closed-loop, %.2f ms mean exec, "
              "SLO %.0f ms\n\n", capacity_qps, mean_exec_ms, slo_ms);

  // Four tenants: weights set the WFQ entitlement, arrival shares are
  // deliberately mismatched (the light-weight tenants push far past their
  // entitlement) so overload must arbitrate. Every tenant's 4x arrival
  // rate exceeds its weight share, so all stay backlogged and served
  // shares should track weight shares.
  const std::vector<std::string> tenant_names = {"gold", "silver", "bronze",
                                                 "free"};
  const std::vector<double> weights = {4.0, 2.0, 1.0, 1.0};
  const std::vector<double> arrival_cdf = {0.4, 0.7, 0.9, 1.0};
  const double weight_sum = 8.0;

  AdmissionConfig admission;
  admission.slo_ms = slo_ms;
  admission.max_concurrency = threads;
  for (size_t i = 0; i < tenant_names.size(); ++i) {
    TenantConfig t;
    t.name = tenant_names[i];
    t.weight = weights[i];
    // Queue sized to the tenant's service rate times a fraction of the
    // deadline: any deeper backlog could not drain before the deadline
    // anyway and would only turn rejections into sheds; the slack keeps
    // the admitted-query tail comfortably inside the SLO.
    t.queue_capacity = std::max<size_t>(
        4, static_cast<size_t>(weights[i] / weight_sum * capacity_qps *
                               0.6 * ecfg.deadline_ms / 1000.0));
    admission.tenants.push_back(std::move(t));
  }

  // --- Phase 2: open-loop at 0.7x capacity (healthy baseline) ------------
  PhaseStats capacity_run;
  {
    QueryExecutor executor(engine.get(), PoolConfig(threads, admission));
    auto schedule = MakeSchedule(0.7 * capacity_qps, duration_s,
                                 /*bursty=*/false, arrival_cdf,
                                 mix_pool.size(), /*seed=*/1001);
    capacity_run =
        RunOpenLoop(executor, mix_pool, tenant_names, schedule, slo_ms);
  }
  std::printf("capacity load (0.7x): %.0f qps goodput, %llu/%llu ok, "
              "%llu rejected, %llu shed\n",
              capacity_run.goodput_qps(),
              static_cast<unsigned long long>(capacity_run.ok),
              static_cast<unsigned long long>(capacity_run.issued),
              static_cast<unsigned long long>(capacity_run.rejected),
              static_cast<unsigned long long>(capacity_run.shed));

  // --- Phase 3: open-loop at 4x capacity (overload) ----------------------
  PhaseStats overload;
  AdmissionSnapshot overload_admission;
  {
    QueryExecutor executor(engine.get(), PoolConfig(threads, admission));
    auto schedule = MakeSchedule(4.0 * capacity_qps, duration_s,
                                 /*bursty=*/true, arrival_cdf,
                                 mix_pool.size(), /*seed=*/2002);
    overload =
        RunOpenLoop(executor, mix_pool, tenant_names, schedule, slo_ms);
    overload_admission = executor.admission();
  }
  {
    std::vector<double> lat = overload.ok_latency_ms;
    std::printf("overload (4x, bursty): %.0f qps goodput (%.2fx of "
                "capacity goodput), p99 %.1f ms, %llu rejected, %llu "
                "shed\n",
                overload.goodput_qps(),
                capacity_run.goodput_qps() > 0
                    ? overload.goodput_qps() / capacity_run.goodput_qps()
                    : 0.0,
                Percentile(lat, 0.99),
                static_cast<unsigned long long>(overload.rejected),
                static_cast<unsigned long long>(overload.shed));
    for (const TenantSnapshot& t : overload_admission.tenants) {
      double share =
          overload_admission.completed > 0
              ? static_cast<double>(t.completed) /
                    static_cast<double>(overload_admission.completed)
              : 0.0;
      std::printf("  tenant %-7s weight %.0f (entitled %.3f)  served "
                  "%.3f  (%llu done, %llu rejected)\n",
                  t.name.c_str(), t.weight, t.weight / weight_sum, share,
                  static_cast<unsigned long long>(t.completed),
                  static_cast<unsigned long long>(t.rejected));
    }
  }

  // --- Phase 4: deterministic fault storm on the view path ---------------
  // Three acts. (1) Transient flakiness at a 10% fault rate: the retry
  // budget absorbs the faults — success deposits keep it solvent, so
  // retries stay approved and the breaker stays closed. (2) Hard outage
  // (rate 1.0): every read and every retry faults; consecutive failures
  // trip the breaker (typically before the budget can drain — the
  // short-circuit stops retry demand entirely), and while it is open
  // queries go straight to the straightforward plan (bit-identical
  // scores — views are exact). (3) Outage over: the budget refills and
  // half-open probes close the breaker.
  PhaseStats storm_protected, storm_drained, recovery;
  const CircuitBreaker& breaker = engine->view_breaker();
  RetryBudget& budget = RetryBudget::Global();
  budget.Reset();  // also zeroes the withdrawal/denial counters
  uint64_t trips0 = breaker.trips();
  uint64_t recoveries0 = breaker.recoveries();
  uint64_t short_circuits0 = breaker.short_circuits();
  uint64_t injected0 = FaultInjector::Instance().trips(FaultPoint::kViewRead);
  uint64_t storm_withdrawals = 0;
  uint64_t storm_denials = 0;
  {
    QueryExecutor executor(engine.get(), PoolConfig(threads));
    {
      ScopedFaultRate flaky(FaultPoint::kViewRead, 0.10, kStormSeed);
      for (int i = 0; i < 4; ++i) {
        RunBatch(executor, storm_pool, slo_ms, &storm_protected);
      }
    }
    {
      ScopedFaultRate outage(FaultPoint::kViewRead, 1.0, kStormSeed);
      for (int i = 0; i < 6; ++i) {
        RunBatch(executor, storm_pool, slo_ms, &storm_drained);
      }
    }
    // Read the storm's budget traffic before Reset() wipes the counters.
    storm_withdrawals = budget.withdrawals();
    storm_denials = budget.denials();
    // Outage over: refill the budget, then keep serving until the open_ms
    // cooldown elapses and half-open probes close the breaker (bounded so
    // a recovery bug fails the run instead of hanging it).
    budget.Reset();
    for (int i = 0; i < 50; ++i) {
      RunBatch(executor, storm_pool, slo_ms, &recovery);
      if (breaker.state() == CircuitBreaker::State::kClosed) break;
      SleepForMillis(5);
    }
  }
  uint64_t storm_trips = breaker.trips() - trips0;
  uint64_t storm_recoveries = breaker.recoveries() - recoveries0;
  std::printf("\nfault storm (10%% flaky then full outage, seed %llu): "
              "%llu retries, %llu denials, breaker %llu trips / %llu "
              "recoveries, final state %s\n",
              static_cast<unsigned long long>(kStormSeed),
              static_cast<unsigned long long>(storm_withdrawals),
              static_cast<unsigned long long>(storm_denials),
              static_cast<unsigned long long>(storm_trips),
              static_cast<unsigned long long>(storm_recoveries),
              std::string(breaker.StateName()).c_str());
  if (storm_trips == 0 || breaker.state() != CircuitBreaker::State::kClosed) {
    std::fprintf(stderr,
                 "breaker did not complete a trip/recover cycle "
                 "(%llu faults were injected)\n",
                 static_cast<unsigned long long>(
                     FaultInjector::Instance().trips(FaultPoint::kViewRead) -
                     injected0));
  }

  // --- Phase 5: staged pipeline vs per-query workers ---------------------
  // Closed-loop passes over a shared-hot-context pool: a handful of
  // distinct keyword sets, all qualified by the SAME large context, tiled
  // out so the in-flight window always holds repeats of the same terms —
  // the serving shape batching targets (many concurrent queries against
  // one hot context). Conventional evaluation keeps every posting advance
  // in the intersect stage (context modes scan predicate lists for
  // statistics in the parse stage, which batching cannot share). The
  // per-query-worker baseline decodes each hot posting block once per
  // query; the staged pipeline batches term-sharing queries on the
  // intersect stage and decodes each block once per batch (DESIGN.md
  // §16). Same engine, same pool, same pass count — the only variable is
  // the executor architecture.
  PhaseStats pipe_base, pipe_staged;
  double pipe_base_qps = 0.0, pipe_staged_qps = 0.0;
  double pipe_base_blocks = 0.0, pipe_staged_blocks = 0.0;
  double pipe_base_busy_ms = 0.0;  // per query, worker time in Search
  PipelineMetrics pipe_metrics;
  {
    // The hottest (largest) context in the view pool becomes the shared
    // context; every pool entry intersects it with its own keywords.
    TermIdSet hot_ctx = view_pool[0].context;
    uint64_t hot_size = engine->ContextSize(hot_ctx);
    for (const ContextQuery& q : view_pool) {
      uint64_t size = engine->ContextSize(q.context);
      if (size > hot_size) {
        hot_ctx = q.context;
        hot_size = size;
      }
    }
    // Four distinct keyword sets, tiled: the overload phases draw queries
    // Zipf(s=1)-skewed, so a handful of hot queries dominating the
    // in-flight window is the measured serving shape, not a contrivance.
    // Candidates are probed once and only SELECTIVE conjunctions kept
    // (small result sets): those are probe-driven — the driver keyword
    // list seeks into the big context lists block by block, so per-block
    // decode is the dominant cost and sharing it across a batch pays.
    // Result-heavy queries are scoring-bound, and scores depend on each
    // query's own terms, so no executor architecture can share that
    // work; including them would measure scoring throughput, not
    // posting-scan batching.
    const EvaluationMode mode = EvaluationMode::kConventional;
    const size_t kDistinct = std::min<size_t>(4, mix_pool.size());
    std::vector<ContextQuery> distinct;
    for (size_t i = 0; i < mix_pool.size(); ++i) {
      if (distinct.size() >= kDistinct) break;
      ContextQuery q = mix_pool[i];
      q.context = hot_ctx;
      q.years = {};
      uint64_t probe_b0 = SnapshotDecodeTallies().blocks_decoded;
      auto probe = engine->Search(q, mode);
      uint64_t probe_blocks =
          SnapshotDecodeTallies().blocks_decoded - probe_b0;
      if (!probe.ok()) continue;
      if (probe->result_count == 0 || probe->result_count > 512) continue;
      // Require real block traffic, too: a conjunction whose driver list
      // skips nearly everything decodes tens of blocks and leaves
      // nothing worth sharing.
      if (probe_blocks < 128) continue;
      std::fprintf(stderr,
                   "# pipeline pool: mix query %zu (%zu keywords): %llu "
                   "results, %llu blocks decoded\n",
                   i, q.keywords.size(),
                   static_cast<unsigned long long>(probe->result_count),
                   static_cast<unsigned long long>(probe_blocks));
      distinct.push_back(std::move(q));
    }
    // At corpus scales where nothing selective exists, fall back to the
    // head of the mix pool so the phase still runs.
    for (size_t i = 0; distinct.size() < kDistinct; ++i) {
      ContextQuery q = mix_pool[i];
      q.context = hot_ctx;
      q.years = {};
      distinct.push_back(std::move(q));
    }
    std::vector<ContextQuery> hot_pool;
    while (hot_pool.size() < 192) {
      hot_pool.push_back(distinct[hot_pool.size() % kDistinct]);
    }
    // Selective queries are fast (hundreds of microseconds), so several
    // passes are needed for a stable timed region.
    const int kPasses = 10;
    if (std::getenv("CSR_BENCH_PIPE_DIAG")) {
      for (size_t i = 0; i < kDistinct; ++i) {
        uint64_t b0 = SnapshotDecodeTallies().blocks_decoded;
        auto r = engine->Search(hot_pool[i], mode);
        uint64_t blk = SnapshotDecodeTallies().blocks_decoded - b0;
        if (!r.ok()) {
          std::printf("  diag q%zu: %s\n", i,
                      r.status().message().c_str());
          continue;
        }
        const SearchMetrics& m = r->metrics;
        std::printf(
            "  diag q%zu: kw=%zu results=%llu total=%.2fms stats=%.2fms "
            "retr=%.2fms entries=%llu skips=%llu blk_dec=%llu "
            "blk_skip=%llu bytes=%llu\n",
            i, hot_pool[i].keywords.size(),
            static_cast<unsigned long long>(r->result_count),
            m.total_ms, m.stats_ms, m.retrieval_ms,
            static_cast<unsigned long long>(m.cost.entries_scanned),
            static_cast<unsigned long long>(m.cost.skips_taken),
            static_cast<unsigned long long>(blk),
            static_cast<unsigned long long>(m.cost.blocks_skipped),
            static_cast<unsigned long long>(m.cost.bytes_touched));
      }
    }
    {
      QueryExecutor base(engine.get(), PoolConfig(threads));
      ExecutorConfig pcfg = PoolConfig(threads);
      pcfg.pipeline.enabled = true;
      // A whole submission chunk can share one arena scope, and the hot
      // context's decoded blocks at this corpus scale outgrow the 1 MiB
      // default (overflow falls back to private decode, muting sharing).
      pcfg.pipeline.max_batch = 16;
      pcfg.pipeline.arena_bytes = 4u << 20;
      QueryExecutor staged(engine.get(), pcfg);
      PhaseStats warm;
      RunBatch(base, hot_pool, slo_ms, &warm, mode);
      RunBatch(staged, hot_pool, slo_ms, &warm, mode);
      // One timed region: the two executors take turns, one 16-query
      // submission chunk each (the first turn alternating), so host drift
      // lands on both alike and their QPS ratio is one measurement. Each
      // executor's QPS is its queries over the time of its own turns.
      struct Arm {
        QueryExecutor* executor;
        PhaseStats* stats;
        double ms = 0.0;
        uint64_t blocks = 0;
      };
      Arm arms[2] = {{&base, &pipe_base}, {&staged, &pipe_staged}};
      const std::span<const ContextQuery> pool(hot_pool);
      const size_t kChunk = 16;
      size_t turn = 0;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t at = 0; at < pool.size(); at += kChunk, ++turn) {
          const auto chunk =
              pool.subspan(at, std::min(kChunk, pool.size() - at));
          for (size_t k = 0; k < 2; ++k) {
            Arm& arm = arms[(turn + k) % 2];
            const uint64_t b0 = SnapshotDecodeTallies().blocks_decoded;
            WallTimer timer;
            RunBatch(*arm.executor, chunk, slo_ms, arm.stats, mode);
            arm.ms += timer.ElapsedMillis();
            arm.blocks += SnapshotDecodeTallies().blocks_decoded - b0;
          }
        }
      }
      auto qps = [](const Arm& a) {
        return a.ms > 0 ? static_cast<double>(a.stats->ok) * 1000.0 / a.ms
                        : 0.0;
      };
      auto blocks_per_query = [](const Arm& a) {
        return a.stats->ok > 0 ? static_cast<double>(a.blocks) /
                                     static_cast<double>(a.stats->ok)
                               : 0.0;
      };
      pipe_base_qps = qps(arms[0]);
      pipe_staged_qps = qps(arms[1]);
      pipe_base_blocks = blocks_per_query(arms[0]);
      pipe_staged_blocks = blocks_per_query(arms[1]);
      ExecutorMetrics em = base.metrics();
      pipe_base_busy_ms =
          em.completed > 0
              ? em.exec_ms_total / static_cast<double>(em.completed)
              : 0;
      pipe_metrics = staged.pipeline();
    }
  }
  {
    std::vector<double> blat = pipe_base.ok_latency_ms;
    std::vector<double> plat = pipe_staged.ok_latency_ms;
    std::printf("\npipeline (shared-hot-context pool): per-query-worker "
                "%.0f qps p99 %.1f ms %.2f blk/q; staged %.0f qps p99 "
                "%.1f ms %.2f blk/q (%.2fx qps, %.2fx blocks)\n",
                pipe_base_qps, Percentile(blat, 0.99), pipe_base_blocks,
                pipe_staged_qps, Percentile(plat, 0.99), pipe_staged_blocks,
                pipe_base_qps > 0 ? pipe_staged_qps / pipe_base_qps : 0.0,
                pipe_base_blocks > 0 ? pipe_staged_blocks / pipe_base_blocks
                                     : 0.0);
    std::printf("  batches: %llu (%llu queries batched, max batch %llu), "
                "arena %llu hits / %llu misses\n",
                static_cast<unsigned long long>(pipe_metrics.batches),
                static_cast<unsigned long long>(pipe_metrics.batched_queries),
                static_cast<unsigned long long>(pipe_metrics.max_batch),
                static_cast<unsigned long long>(pipe_metrics.arena_hits),
                static_cast<unsigned long long>(pipe_metrics.arena_misses));
    // Per-stage busy time per query and occupancy: where a miss of the
    // pipeline gate's QPS floor comes from (a saturated stage, or an
    // intersect worker left idle by batch formation).
    std::printf("  busy ms/query: per-query-worker %.3f; staged",
                pipe_base_busy_ms);
    for (const auto& [name, st] : PipelineStages(pipe_metrics)) {
      std::printf(" %s %.3f (x%u, occupancy %.2f)", name,
                  StageBusyPerQuery(*st), st->workers,
                  StageOccupancy(*st, pipe_metrics.uptime_ms));
    }
    std::printf("\n");
  }

  // --- Phase 6: online adaptive view selection ---------------------------
  // A separate engine with NO offline catalog: every context-sensitive
  // query either hits the adaptive cache or pays the straightforward
  // plan, so the cache's learning loop is the only thing measured. Capped
  // at a smaller corpus than the serving phases — the phase measures
  // hit-rate dynamics and a QPS ratio, both of which are scale-stable,
  // and two extra engine builds at full scale would dominate the bench.
  struct AdaptivePhaseReport {
    uint64_t num_docs = 0;
    uint64_t contexts = 0;
    uint64_t budget_bytes = 0;
    uint64_t view_bytes_total = 0;
    uint64_t resident_bytes_max = 0;
    double steady_hit_rate = 0.0;
    double qps_no_views = 0.0;
    double qps_adaptive = 0.0;
    bool topk_identical = true;
    uint64_t installs = 0;
    uint64_t evictions = 0;
    uint64_t refreshes = 0;
    uint64_t rejected_budget = 0;
    std::vector<double> hit_rate_curve;  // one entry per batch
    uint64_t stampede_cold_misses = 0;
    uint64_t stampede_installs = 0;
    bool stampede_resident = false;
  } ap;
  {
    ap.num_docs = std::min(num_docs, 40000u);
    auto corpus_r = CorpusGenerator(
                        BenchCorpusConfig(static_cast<uint32_t>(ap.num_docs)))
                        .Generate();
    if (!corpus_r.ok()) {
      std::fprintf(stderr, "adaptive-phase corpus generation failed: %s\n",
                   corpus_r.status().ToString().c_str());
      return 1;
    }
    Corpus corpus = std::move(corpus_r).value();

    // Probe: install a view for every candidate context under a loose
    // budget to measure REAL resident bytes; the measured total then
    // sizes a binding budget (~55%, floored so the largest single view
    // still fits) for the engine under test.
    EngineConfig acfg;
    acfg.adaptive_view_budget_bytes = 1ull << 40;
    acfg.adaptive_min_score_ms = 0.01;
    acfg.adaptive_cooldown_steps = 2;
    auto probe_r = ContextSearchEngine::Build(corpus, acfg);
    if (!probe_r.ok()) {
      std::fprintf(stderr, "adaptive-phase probe build failed: %s\n",
                   probe_r.status().ToString().c_str());
      return 1;
    }
    auto probe = std::move(probe_r).value();

    // Candidate contexts: large (view-worthy) lifted contexts, like the
    // Figure 7 experiment; the last distinct one is held out as the
    // stampede target and never appears in the drift workload.
    WorkloadGenerator agen(probe.get(), 31337);
    agen.set_lift_to_roots(true);
    std::vector<TermIdSet> ctxs;
    std::vector<std::vector<TermId>> kwsets;
    for (uint32_t nk = 2; nk <= 3 && ctxs.size() < 11; ++nk) {
      for (auto& wq :
           agen.Generate(80, nk, probe->context_threshold(), 0, 100000)) {
        kwsets.push_back(wq.query.keywords);
        if (ctxs.size() < 11 &&
            std::find(ctxs.begin(), ctxs.end(), wq.query.context) ==
                ctxs.end()) {
          ctxs.push_back(wq.query.context);
        }
      }
    }
    if (ctxs.size() < 3 || kwsets.empty()) {
      std::fprintf(stderr,
                   "adaptive phase: only %zu distinct large contexts at "
                   "this scale; skipping phase\n",
                   ctxs.size());
      return 1;
    }
    TermIdSet stampede_ctx = ctxs.back();
    ctxs.pop_back();
    ap.contexts = ctxs.size();

    uint64_t max_view_bytes = 0;
    for (size_t i = 0; i < ctxs.size(); ++i) {
      ContextQuery q{kwsets[i % kwsets.size()], ctxs[i]};
      auto r = probe->Search(q, EvaluationMode::kContextWithViews);
      if (!r.ok()) continue;
      probe->AdaptiveStep();
    }
    {
      auto version = probe->adaptive()->Snapshot();
      ap.view_bytes_total = version->resident_bytes;
      for (const auto& av : version->views) {
        max_view_bytes = std::max(max_view_bytes, av->bytes);
      }
      if (version->views.size() < ctxs.size()) {
        std::fprintf(stderr, "# adaptive probe: %zu/%zu views installed\n",
                     version->views.size(), ctxs.size());
      }
    }
    ap.budget_bytes =
        std::max(ap.view_bytes_total * 11 / 20, max_view_bytes + 1);
    probe.reset();

    EngineConfig dcfg;
    dcfg.adaptive_view_budget_bytes = ap.budget_bytes;
    dcfg.adaptive_min_score_ms = 0.05;
    dcfg.adaptive_cooldown_steps = 2;
    auto aengine_r = ContextSearchEngine::Build(std::move(corpus), dcfg);
    if (!aengine_r.ok()) {
      std::fprintf(stderr, "adaptive-phase engine build failed: %s\n",
                   aengine_r.status().ToString().c_str());
      return 1;
    }
    auto aengine = std::move(aengine_r).value();
    const AdaptiveViewController* ctl = aengine->adaptive();

    // Drifting Zipf workload: queries draw contexts Zipf(s=1)-skewed, and
    // the rank->context mapping rotates every 5 batches, so the hot set
    // keeps moving and the cache must keep evicting cold views for the
    // new hot ones. The first half is the cold-start warmup; the second
    // half is the steady-state window the hit-rate gate reads.
    SplitMix64 arng(0xADA9F1);
    ZipfDistribution azipf(ctxs.size(), 1.0);
    const int kBatches = 24;
    const int kPerBatch = 60;
    uint64_t drift = 0;
    uint64_t prev_hits = 0, prev_misses = 0;
    uint64_t steady_hits0 = 0, steady_misses0 = 0;
    for (int b = 0; b < kBatches; ++b) {
      if (b > 0 && b % 5 == 0) drift++;
      for (int i = 0; i < kPerBatch; ++i) {
        size_t ci = (azipf.Sample(arng) + drift) % ctxs.size();
        ContextQuery q{kwsets[(static_cast<size_t>(b) * kPerBatch + i) %
                              kwsets.size()],
                       ctxs[ci]};
        auto r = aengine->Search(q, EvaluationMode::kContextWithViews);
        if (!r.ok()) {
          std::fprintf(stderr, "adaptive-phase query failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
      }
      aengine->AdaptiveStep();
      aengine->AdaptiveStep();
      ap.resident_bytes_max = std::max(
          ap.resident_bytes_max, ctl->Snapshot()->resident_bytes);
      uint64_t h = ctl->telemetry().hits;
      uint64_t m = ctl->telemetry().misses;
      uint64_t dh = h - prev_hits;
      uint64_t dm = m - prev_misses;
      ap.hit_rate_curve.push_back(
          dh + dm == 0 ? 0.0
                       : static_cast<double>(dh) /
                             static_cast<double>(dh + dm));
      if (b + 1 == kBatches / 2) {
        steady_hits0 = h;
        steady_misses0 = m;
      }
      prev_hits = h;
      prev_misses = m;
    }
    {
      uint64_t sh = ctl->telemetry().hits - steady_hits0;
      uint64_t sm = ctl->telemetry().misses - steady_misses0;
      ap.steady_hit_rate =
          sh + sm == 0
              ? 0.0
              : static_cast<double>(sh) / static_cast<double>(sh + sm);
    }

    // Top-k equality: the whole point of exact adaptive views is that no
    // query can tell which plan served it. Checked for every context at
    // whatever residency state the drift left it in.
    for (size_t i = 0; i < ctxs.size() && ap.topk_identical; ++i) {
      for (size_t v = 0; v < 3; ++v) {
        ContextQuery q{kwsets[(i * 3 + v) % kwsets.size()], ctxs[i]};
        auto a = aengine->Search(q, EvaluationMode::kContextWithViews);
        auto s = aengine->Search(q, EvaluationMode::kContextStraightforward);
        if (!a.ok() || !s.ok() ||
            a->result_count != s->result_count ||
            a->stats.cardinality != s->stats.cardinality ||
            a->stats.df != s->stats.df ||
            a->top_docs.size() != s->top_docs.size()) {
          ap.topk_identical = false;
          break;
        }
        for (size_t k = 0; k < a->top_docs.size(); ++k) {
          if (a->top_docs[k].doc != s->top_docs[k].doc ||
              a->top_docs[k].score != s->top_docs[k].score) {
            ap.topk_identical = false;
            break;
          }
        }
      }
    }

    // QPS: one fixed query sequence over the final drift state, timed
    // once per plan. Straightforward mode never consults the cache, so
    // running it on the same engine is a clean no-views baseline.
    std::vector<ContextQuery> seq;
    for (int i = 0; i < 300; ++i) {
      size_t ci = (azipf.Sample(arng) + drift) % ctxs.size();
      seq.push_back(ContextQuery{kwsets[i % kwsets.size()], ctxs[ci]});
    }
    {
      WallTimer timer;
      for (const ContextQuery& q : seq) {
        if (!aengine->Search(q, EvaluationMode::kContextStraightforward)
                 .ok()) {
          ap.topk_identical = false;
        }
      }
      double secs = timer.ElapsedSeconds();
      ap.qps_no_views =
          secs > 0 ? static_cast<double>(seq.size()) / secs : 0.0;
    }
    {
      WallTimer timer;
      for (const ContextQuery& q : seq) {
        if (!aengine->Search(q, EvaluationMode::kContextWithViews).ok()) {
          ap.topk_identical = false;
        }
      }
      double secs = timer.ElapsedSeconds();
      ap.qps_adaptive =
          secs > 0 ? static_cast<double>(seq.size()) / secs : 0.0;
    }

    // Stampede: a brand-new hot context, hammered by concurrent threads
    // while the controller steps. Every thread misses until the ONE
    // step-driven build installs the view; the install count stays far
    // below the miss count (no thundering-herd of builds), and the
    // context ends resident.
    {
      uint64_t misses0 = ctl->telemetry().misses;
      uint64_t installs0 = ctl->telemetry().installs;
      std::atomic<bool> step_stop{false};
      std::thread stepper([&] {
        while (!step_stop.load(std::memory_order_relaxed)) {
          aengine->AdaptiveStep();
          SleepForMillis(1);
        }
      });
      std::vector<std::thread> stormers;
      for (uint32_t t = 0; t < std::max(2u, threads); ++t) {
        stormers.emplace_back([&, t] {
          for (int i = 0; i < 40; ++i) {
            ContextQuery q{kwsets[(t * 40 + static_cast<uint32_t>(i)) %
                                  kwsets.size()],
                           stampede_ctx};
            auto r =
                aengine->Search(q, EvaluationMode::kContextWithViews);
            (void)r;
          }
        });
      }
      for (auto& t : stormers) t.join();
      step_stop.store(true, std::memory_order_relaxed);
      stepper.join();
      for (int i = 0; i < 4; ++i) aengine->AdaptiveStep();
      ap.stampede_cold_misses = ctl->telemetry().misses - misses0;
      ap.stampede_installs = ctl->telemetry().installs - installs0;
      ap.stampede_resident =
          ctl->Snapshot()->FindBest(stampede_ctx) != nullptr;
      ap.resident_bytes_max = std::max(
          ap.resident_bytes_max, ctl->Snapshot()->resident_bytes);
    }

    ap.installs = ctl->telemetry().installs;
    ap.evictions = ctl->telemetry().evictions;
    ap.refreshes = ctl->telemetry().refreshes;
    ap.rejected_budget = ctl->telemetry().rejected_budget;
    std::printf(
        "\nadaptive (%llu docs, %llu contexts, budget %llu of %llu view "
        "bytes): steady hit rate %.2f, %.0f qps straightforward -> %.0f "
        "qps adaptive (%.2fx), %llu installs / %llu evictions / %llu "
        "refreshes, top-k %s\n",
        static_cast<unsigned long long>(ap.num_docs),
        static_cast<unsigned long long>(ap.contexts),
        static_cast<unsigned long long>(ap.budget_bytes),
        static_cast<unsigned long long>(ap.view_bytes_total),
        ap.steady_hit_rate, ap.qps_no_views, ap.qps_adaptive,
        ap.qps_no_views > 0 ? ap.qps_adaptive / ap.qps_no_views : 0.0,
        static_cast<unsigned long long>(ap.installs),
        static_cast<unsigned long long>(ap.evictions),
        static_cast<unsigned long long>(ap.refreshes),
        ap.topk_identical ? "identical" : "MISMATCH");
    std::printf("  stampede: %llu cold misses -> %llu install(s), "
                "resident=%s\n",
                static_cast<unsigned long long>(ap.stampede_cold_misses),
                static_cast<unsigned long long>(ap.stampede_installs),
                ap.stampede_resident ? "true" : "false");
  }

  if (!json_path.empty()) {
    PhaseStats storm_all;
    for (const PhaseStats* s :
         {&storm_protected, &storm_drained, &recovery}) {
      storm_all.issued += s->issued;
      storm_all.ok += s->ok;
      storm_all.good += s->good;
      storm_all.degraded += s->degraded;
      storm_all.rejected += s->rejected;
      storm_all.shed += s->shed;
      storm_all.failed += s->failed;
    }
    JsonWriter json;
    json.Open();
    json.OpenObject("serving");
    json.Field("num_docs", static_cast<uint64_t>(num_docs));
    json.Field("threads", static_cast<uint64_t>(threads));
    json.Field("slo_ms", slo_ms);
    json.Field("deadline_ms", ecfg.deadline_ms);
    json.OpenObject("calibration");
    json.Field("capacity_qps", capacity_qps);
    json.Field("mean_exec_ms", mean_exec_ms);
    json.CloseObject();
    json.OpenObject("capacity");
    EmitPhase(json, capacity_run, slo_ms);
    json.CloseObject();
    json.OpenObject("overload");
    EmitPhase(json, overload, slo_ms);
    json.Field("goodput_ratio_vs_capacity",
               capacity_run.goodput_qps() > 0
                   ? overload.goodput_qps() / capacity_run.goodput_qps()
                   : 0.0);
    json.Field("limit_final",
               static_cast<uint64_t>(overload_admission.limit));
    json.Field("limit_increases", overload_admission.limit_increases);
    json.Field("limit_decreases", overload_admission.limit_decreases);
    json.OpenObject("tenants");
    for (const TenantSnapshot& t : overload_admission.tenants) {
      json.OpenObject(t.name);
      json.Field("weight", t.weight);
      json.Field("weight_share", t.weight / weight_sum);
      json.Field("served_share",
                 overload_admission.completed > 0
                     ? static_cast<double>(t.completed) /
                           static_cast<double>(overload_admission.completed)
                     : 0.0);
      json.Field("completed", t.completed);
      json.Field("rejected", t.rejected);
      json.Field("shed", t.shed);
      json.CloseObject();
    }
    json.CloseObject();
    json.CloseObject();
    json.OpenObject("fault_storm");
    json.Field("fault_rate", 0.10);
    json.Field("outage_rate", 1.0);
    json.Field("seed", kStormSeed);
    json.Field("queries", storm_all.issued);
    json.Field("ok", storm_all.ok);
    json.Field("degraded", storm_all.degraded);
    json.Field("rejected", storm_all.rejected);
    json.Field("shed", storm_all.shed);
    json.Field("failed", storm_all.failed);
    json.Field("retry_withdrawals", storm_withdrawals);
    json.Field("retry_denials", storm_denials);
    json.Field("breaker_trips", storm_trips);
    json.Field("breaker_recoveries", storm_recoveries);
    json.Field("breaker_short_circuits",
               breaker.short_circuits() - short_circuits0);
    json.Field("breaker_state_final", std::string(breaker.StateName()));
    json.CloseObject();
    json.OpenObject("pipeline");
    {
      std::vector<double> blat = pipe_base.ok_latency_ms;
      std::vector<double> plat = pipe_staged.ok_latency_ms;
      json.Field("slo_ms", slo_ms);
      json.OpenObject("per_query_worker");
      json.Field("qps", pipe_base_qps);
      json.Field("ok", pipe_base.ok);
      json.Field("p99_ms", Percentile(blat, 0.99));
      json.Field("blocks_per_query", pipe_base_blocks);
      json.Field("busy_ms_per_query", pipe_base_busy_ms);
      json.CloseObject();
      json.OpenObject("pipelined");
      json.Field("qps", pipe_staged_qps);
      json.Field("ok", pipe_staged.ok);
      json.Field("p99_ms", Percentile(plat, 0.99));
      json.Field("blocks_per_query", pipe_staged_blocks);
      json.Field("batches", pipe_metrics.batches);
      json.Field("batched_queries", pipe_metrics.batched_queries);
      json.Field("max_batch", pipe_metrics.max_batch);
      json.Field("arena_hits", pipe_metrics.arena_hits);
      json.Field("arena_misses", pipe_metrics.arena_misses);
      json.OpenObject("stages");
      for (const auto& [name, st] : PipelineStages(pipe_metrics)) {
        json.OpenObject(name);
        json.Field("workers", static_cast<uint64_t>(st->workers));
        json.Field("busy_ms_per_query", StageBusyPerQuery(*st));
        json.Field("occupancy", StageOccupancy(*st, pipe_metrics.uptime_ms));
        json.CloseObject();
      }
      json.CloseObject();
      json.OpenObject("batch_size_hist");
      for (size_t i = 1; i < pipe_metrics.batch_size_counts.size(); ++i) {
        if (pipe_metrics.batch_size_counts[i] > 0) {
          json.Field(std::to_string(i), pipe_metrics.batch_size_counts[i]);
        }
      }
      json.CloseObject();
      json.CloseObject();
      json.Field("qps_ratio",
                 pipe_base_qps > 0 ? pipe_staged_qps / pipe_base_qps : 0.0);
      json.Field("blocks_per_query_ratio",
                 pipe_base_blocks > 0 ? pipe_staged_blocks / pipe_base_blocks
                                      : 0.0);
    }
    json.CloseObject();
    json.OpenObject("adaptive");
    json.Field("num_docs", ap.num_docs);
    json.Field("contexts", ap.contexts);
    json.Field("budget_bytes", ap.budget_bytes);
    json.Field("view_bytes_total", ap.view_bytes_total);
    json.Field("resident_bytes_max", ap.resident_bytes_max);
    json.Field("steady_hit_rate", ap.steady_hit_rate);
    json.Field("qps_no_views", ap.qps_no_views);
    json.Field("qps_adaptive", ap.qps_adaptive);
    json.Field("qps_ratio",
               ap.qps_no_views > 0 ? ap.qps_adaptive / ap.qps_no_views : 0.0);
    json.Field("topk_identical", ap.topk_identical);
    json.Field("installs", ap.installs);
    json.Field("evictions", ap.evictions);
    json.Field("refreshes", ap.refreshes);
    json.Field("rejected_budget", ap.rejected_budget);
    // JsonWriter has no array support; the warmup curve is an object
    // keyed by batch index, like the pipeline batch histogram.
    json.OpenObject("hit_rate_by_batch");
    for (size_t b = 0; b < ap.hit_rate_curve.size(); ++b) {
      json.Field(std::to_string(b), ap.hit_rate_curve[b]);
    }
    json.CloseObject();
    json.OpenObject("stampede");
    json.Field("cold_misses", ap.stampede_cold_misses);
    json.Field("installs", ap.stampede_installs);
    json.Field("resident", ap.stampede_resident);
    json.CloseObject();
    json.CloseObject();
    json.CloseObject();
    json.Close();
    if (Status s = json.WriteFile(json_path); !s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace csr::bench

int main(int argc, char** argv) { return csr::bench::Main(argc, argv); }
