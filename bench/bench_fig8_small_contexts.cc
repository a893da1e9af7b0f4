// Reproduces Figure 8: execution time for SMALL-context queries (context
// size < T_C), varying the number of keywords from 2 to 5. Two series:
//
//   conventional   Q_t = Q_k ∪ P
//   Q_c            context-sensitive, straightforward evaluation (no view
//                  can cover a context below T_C by design)
//
// Paper shape: Q_c is noticeably slower than conventional (every statistic
// is computed online), but the absolute time stays bounded because small
// contexts mean selective predicate lists, which skip pointers exploit.
//
// A second table prices the straightforward plan against its own context
// conjunction on the same pool: StraightforwardCollectionStats with every
// keyword over the same call with no keywords, interleaved query by query
// so host drift cancels. The plan materializes D_P once and joins each
// keyword list with it, so the ratio stays near 1 + k × (cost of a 2-way
// join ÷ cost of the m-way conjunction). With `--json <path>` it is
// written as a `context_set` section for tools/check_bench_regression.py
// --context-set-bench (perf_smoke_context_set ctest lane).
//
// A third table prices the ScanGuard every Search carries: the same D_P
// build (ContextSet::Build) under an inert ScanGuard(0, 0) and with no
// guard, interleaved query by query. Guarded and unguarded builds run the
// same block kernels and differ only by the batched tick charges, so the
// ratio stays near 1; the JSON field `guarded_over_unguarded` is gated.
//
// Scale with CSR_BENCH_DOCS (default 120k docs).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/query_gen.h"
#include "stats/collector.h"
#include "stats/context_set.h"
#include "stats/statistics.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace csr;
  std::string json_path = bench::TakeJsonFlag(&argc, argv);
  uint32_t num_docs = bench::BenchNumDocs();
  auto engine = bench::BuildBenchEngine(num_docs);
  uint64_t t_c = engine->context_threshold();

  const uint32_t kQueriesPerPoint = 50;
  const int kRepeats = 5;

  std::printf("=== Figure 8: execution time, small-context queries "
              "(context < T_C = %llu docs; %u queries/point, avg of %d "
              "runs) ===\n\n",
              static_cast<unsigned long long>(t_c), kQueriesPerPoint,
              kRepeats);
  std::printf("%-10s %14s %14s %10s\n", "#keywords", "conv (ms)",
              "Qc (ms)", "slowdown");

  std::vector<std::vector<ContextQuery>> pool(6);
  for (uint32_t nk = 2; nk <= 5; ++nk) {
    WorkloadGenerator gen(engine.get(), 2000 + nk);
    auto queries =
        gen.Generate(kQueriesPerPoint, nk, 1, t_c > 1 ? t_c - 1 : 1, 200000);
    if (queries.empty()) {
      std::printf("%-10u  (no qualifying queries generated)\n", nk);
      continue;
    }

    double conv_ms = 0, ctx_ms = 0;
    for (const auto& wq : queries) {
      pool[nk].push_back(wq.query);
      double c = 0, x = 0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        auto rc = engine->Search(wq.query, EvaluationMode::kConventional);
        auto rx = engine->Search(wq.query,
                                 EvaluationMode::kContextStraightforward);
        if (!rc.ok() || !rx.ok()) continue;
        c += rc->metrics.total_ms;
        x += rx->metrics.total_ms;
      }
      conv_ms += c / kRepeats;
      ctx_ms += x / kRepeats;
    }
    size_t n = queries.size();
    std::printf("%-10u %14.3f %14.3f %9.1fx\n", nk, conv_ms / n, ctx_ms / n,
                ctx_ms / (conv_ms > 0 ? conv_ms : 1));
  }
  std::printf("\nExpected shape: Q_c slower than conventional (stats "
              "computed online) but bounded in absolute terms.\n");

  // -- Straightforward plan vs its context conjunction --------------------
  // Per query, the fastest of kProbeRepeats interleaved runs of each call
  // (the minimum filters out host preemption); the ratio is of the sums.
  const int kProbeRepeats = 7;
  const InvertedIndex& content = engine->content_index();
  const InvertedIndex& predicate = engine->predicate_index();
  double conj_total = 0, sf_total = 0;
  uint64_t probed = 0, mismatches = 0;
  std::printf("\n=== Straightforward plan vs its context conjunction "
              "(fastest of %d interleaved runs per query) ===\n\n",
              kProbeRepeats);
  std::printf("%-10s %14s %16s %10s\n", "#keywords", "conj (ms)",
              "all kw (ms)", "ratio");
  for (uint32_t nk = 2; nk <= 5; ++nk) {
    double conj_nk = 0, sf_nk = 0;
    for (const ContextQuery& q : pool[nk]) {
      std::vector<TermId> keywords =
          QueryStats::FromKeywords(q.keywords).keywords;
      double conj_best = std::numeric_limits<double>::infinity();
      double sf_best = conj_best;
      CollectionStats conj, sf;
      for (int rep = 0; rep < kProbeRepeats; ++rep) {
        WallTimer timer;
        conj = StraightforwardCollectionStats(content, predicate, q.context,
                                              {});
        conj_best = std::min(conj_best, timer.ElapsedMillis());
        timer.Restart();
        sf = StraightforwardCollectionStats(content, predicate, q.context,
                                            keywords);
        sf_best = std::min(sf_best, timer.ElapsedMillis());
      }
      if (conj.cardinality != sf.cardinality ||
          conj.total_length != sf.total_length) {
        ++mismatches;
      }
      conj_nk += conj_best;
      sf_nk += sf_best;
      ++probed;
    }
    conj_total += conj_nk;
    sf_total += sf_nk;
    if (!pool[nk].empty()) {
      size_t n = pool[nk].size();
      std::printf("%-10u %14.4f %16.4f %9.2fx\n", nk, conj_nk / n, sf_nk / n,
                  conj_nk > 0 ? sf_nk / conj_nk : 0.0);
    }
  }
  double ratio = conj_total > 0 ? sf_total / conj_total : 0.0;
  std::printf("%-10s %14.4f %16.4f %9.2fx\n", "all",
              probed > 0 ? conj_total / probed : 0.0,
              probed > 0 ? sf_total / probed : 0.0, ratio);
  std::printf("\nGate: all-keywords / no-keywords ratio <= 2.0 "
              "(one m-way conjunction + k 2-way joins with D_P).\n");

  // -- Guarded vs unguarded D_P build --------------------------------------
  double guarded_total = 0, unguarded_total = 0;
  for (uint32_t nk = 2; nk <= 5; ++nk) {
    for (const ContextQuery& q : pool[nk]) {
      double guarded_best = std::numeric_limits<double>::infinity();
      double unguarded_best = guarded_best;
      for (int rep = 0; rep < kProbeRepeats; ++rep) {
        WallTimer timer;
        ContextSet unguarded =
            ContextSet::Build(content, predicate, q.context);
        unguarded_best = std::min(unguarded_best, timer.ElapsedMillis());
        ScanGuard guard(0, 0);
        timer.Restart();
        ContextSet guarded = ContextSet::Build(content, predicate, q.context,
                                               nullptr, {}, {}, &guard);
        guarded_best = std::min(guarded_best, timer.ElapsedMillis());
      }
      guarded_total += guarded_best;
      unguarded_total += unguarded_best;
    }
  }
  const double guard_ratio =
      unguarded_total > 0 ? guarded_total / unguarded_total : 0.0;
  std::printf("\n=== D_P build with an inert ScanGuard vs none (fastest of "
              "%d interleaved runs per query) ===\n\n",
              kProbeRepeats);
  std::printf("%-10s %14s %16s %10s\n", "", "none (ms)", "guarded (ms)",
              "ratio");
  std::printf("%-10s %14.4f %16.4f %9.2fx\n", "all",
              probed > 0 ? unguarded_total / probed : 0.0,
              probed > 0 ? guarded_total / probed : 0.0, guard_ratio);
  std::printf("\nGate: guarded / unguarded ratio <= 1.15 (one kernel, "
              "batched tick charges).\n");

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.Open();
    w.OpenObject("context_set");
    w.Field("workload", std::string("fig8_small_contexts"));
    w.Field("num_docs", static_cast<uint64_t>(num_docs));
    w.Field("context_threshold", t_c);
    w.Field("queries", probed);
    w.Field("repeats", static_cast<uint64_t>(kProbeRepeats));
    w.Field("conj_ms_mean", probed > 0 ? conj_total / probed : 0.0);
    w.Field("straightforward_ms_mean", probed > 0 ? sf_total / probed : 0.0);
    w.Field("straightforward_over_conj", ratio);
    w.Field("cardinality_mismatches", mismatches);
    w.Field("unguarded_build_ms_mean",
            probed > 0 ? unguarded_total / probed : 0.0);
    w.Field("guarded_build_ms_mean",
            probed > 0 ? guarded_total / probed : 0.0);
    w.Field("guarded_over_unguarded", guard_ratio);
    w.CloseObject();
    w.Close();
    if (Status s = w.WriteFile(json_path); !s.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
