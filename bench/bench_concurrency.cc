// QPS vs. thread count for concurrent Search through the QueryExecutor.
// The engine is read-mostly after build (immutable indexes + catalog,
// striped stats cache, atomic telemetry), so throughput should scale with
// worker threads until the memory bus or the core count saturates —
// report the measured curve rather than assuming it.
//
//   threads   QPS      speedup   mean wait (ms)   mean exec (ms)
//
// Scale with CSR_BENCH_DOCS (default 120k docs) and CSR_BENCH_THREADS
// (comma-free max, default 8). Hardware note: on a single-core container
// the speedup column will hover near 1x by construction; the interesting
// signals there are that QPS does not *collapse* with more threads (no
// lock convoy on the cache stripes) and that queue-wait grows in
// proportion.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/executor.h"
#include "eval/query_gen.h"

int main() {
  using namespace csr;
  uint32_t num_docs = bench::BenchNumDocs();
  uint32_t max_threads = 8;
  if (const char* env = std::getenv("CSR_BENCH_THREADS")) {
    long v = std::atol(env);
    if (v > 0) max_threads = static_cast<uint32_t>(v);
  }

  EngineConfig ecfg;
  ecfg.stats_cache_capacity = 256;  // serving config: cache on
  auto engine = bench::BuildBenchEngine(num_docs, ecfg);

  // Fixed mixed workload: contexts above and below T_C, 2-3 keywords.
  const uint32_t kWorkload = 200;
  const int kPasses = 3;
  WorkloadGenerator gen(engine.get(), 4242);
  std::vector<ContextQuery> queries;
  for (uint32_t nk = 2; nk <= 3; ++nk) {
    auto wqs = gen.Generate(kWorkload / 4, nk, 0, 0, 100000);
    for (auto& wq : wqs) queries.push_back(std::move(wq.query));
  }
  gen.set_lift_to_roots(true);
  for (uint32_t nk = 2; nk <= 3; ++nk) {
    auto wqs = gen.Generate(kWorkload / 4, nk, engine->context_threshold(), 0,
                            100000);
    for (auto& wq : wqs) queries.push_back(std::move(wq.query));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no workload queries generated\n");
    return 1;
  }

  std::printf("=== Concurrency: QPS vs. threads (%zu queries x %d passes, "
              "mode=context-with-views, hw threads=%u) ===\n\n",
              queries.size(), kPasses,
              std::thread::hardware_concurrency());
  std::printf("%-8s %12s %9s %17s %17s %12s\n", "threads", "QPS", "speedup",
              "mean wait (ms)", "mean exec (ms)", "max depth");

  double qps_1 = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > max_threads) break;
    ExecutorConfig ecfg;
    ecfg.num_threads = threads;
    ecfg.queue_capacity = 1024;
    QueryExecutor executor(engine.get(), ecfg);
    // Warm pass (cache fill) outside the timed region.
    executor.SearchBatch(queries, EvaluationMode::kContextWithViews);

    WallTimer timer;
    uint64_t completed = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      auto results =
          executor.SearchBatch(queries, EvaluationMode::kContextWithViews);
      for (const auto& r : results) {
        if (r.ok()) ++completed;
      }
    }
    double secs = timer.ElapsedSeconds();
    double qps = static_cast<double>(completed) / secs;
    if (threads == 1) qps_1 = qps;

    ExecutorMetrics m = executor.metrics();
    uint64_t tasks = m.completed > 0 ? m.completed : 1;
    std::printf("%-8u %12.0f %8.2fx %17.3f %17.3f %12zu\n", threads, qps,
                qps_1 > 0 ? qps / qps_1 : 0.0,
                m.queue_wait_ms_total / static_cast<double>(tasks),
                m.exec_ms_total / static_cast<double>(tasks),
                m.max_queue_depth);
  }
  std::printf("\nExpected shape (multicore): near-linear QPS up to the "
              "core count; flat on fewer cores, never collapsing.\n");
  return 0;
}
