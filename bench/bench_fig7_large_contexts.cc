// Reproduces Figure 7: execution time for LARGE-context queries (context
// size >= T_C), varying the number of keywords from 2 to 5. Three series:
//
//   conventional          Q_t = Q_k ∪ P   (global stats, P is a filter)
//   Q_c with views        context stats from materialized views
//   Q_c without views     context stats by the straightforward plan
//
// Paper shape: with-views ≈ 2x conventional; without-views is far slower;
// absolute with-views time stays bounded (~100 ms at PubMed scale).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "eval/query_gen.h"

int main() {
  using namespace csr;
  uint32_t num_docs = bench::BenchNumDocs();
  auto engine = bench::BuildBenchEngine(num_docs);
  uint64_t t_c = engine->context_threshold();

  const uint32_t kQueriesPerPoint = 50;
  const int kRepeats = 5;

  std::printf("=== Figure 7: execution time, large-context queries "
              "(context >= T_C = %llu docs; %u queries/point, best-of-%d "
              "avg) ===\n\n",
              static_cast<unsigned long long>(t_c), kQueriesPerPoint,
              kRepeats);
  std::printf("%-10s %14s %16s %18s %12s\n", "#keywords", "conv (ms)",
              "Qc+views (ms)", "Qc-no-views (ms)", "view hit%");

  for (uint32_t nk = 2; nk <= 5; ++nk) {
    WorkloadGenerator gen(engine.get(), 1000 + nk);
    gen.set_lift_to_roots(true);  // broad contexts, as in the experiment
    auto queries = gen.Generate(kQueriesPerPoint, nk, t_c, 0, 200000);
    if (queries.empty()) {
      std::printf("%-10u  (no qualifying queries generated)\n", nk);
      continue;
    }

    double conv_ms = 0, view_ms = 0, direct_ms = 0;
    uint32_t view_hits = 0;
    for (const auto& wq : queries) {
      // Average over repeats, which reduce timer noise. The with-views runs
      // of a context also fill the context-set cache (DESIGN.md §18), so
      // from the third on its untracked keywords join the cached D_P; the
      // straightforward runs never use that cache.
      double c = 0, v = 0, d = 0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        auto rc = engine->Search(wq.query, EvaluationMode::kConventional);
        auto rv = engine->Search(wq.query, EvaluationMode::kContextWithViews);
        auto rd = engine->Search(wq.query,
                                 EvaluationMode::kContextStraightforward);
        if (!rc.ok() || !rv.ok() || !rd.ok()) continue;
        c += rc->metrics.total_ms;
        v += rv->metrics.total_ms;
        d += rd->metrics.total_ms;
        if (rep == 0 && rv->metrics.used_view) ++view_hits;
      }
      conv_ms += c / kRepeats;
      view_ms += v / kRepeats;
      direct_ms += d / kRepeats;
    }
    size_t n = queries.size();
    std::printf("%-10u %14.3f %16.3f %18.3f %11.0f%%\n", nk, conv_ms / n,
                view_ms / n, direct_ms / n, 100.0 * view_hits / n);
  }
  std::printf("\nExpected shape: Qc-without-views >> Qc-with-views, and "
              "Qc-with-views within a small factor of conventional.\n");
  return 0;
}
