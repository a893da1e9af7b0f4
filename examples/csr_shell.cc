// csr_shell: a minimal interactive shell over the engine, wired through
// the textual query syntax of Section 2.1 and the snapshot store.
//
//   ./build/examples/csr_shell [num_docs] < script.txt
//
// Commands (one per line):
//   <keywords> | <predicates>     run a context-sensitive query, e.g.
//                                 "w120 w4571 | C3 & C3.7"
//   <keywords>                    run a conventional query
//   .mode conv|direct|views       evaluation mode for '|' queries
//   .context <predicate...>       show a context's size and covering view
//   .pool <n> [staged]            route queries through an n-thread
//                                 QueryExecutor (0 disables the pool);
//                                 "staged" runs the parse/intersect/score
//                                 pipeline instead of per-query workers
//   .pipeline                     staged-pipeline state: per-stage queue
//                                 depth, worker occupancy, intersect
//                                 batch-size histogram, arena hit rate
//   .save <dir> / .load <dir>     snapshot the engine / restore it
//   .index compact                compress the inverted indexes + views
//   .stats                        engine statistics (incl. index memory
//                                 and pool metrics)
//   .adaptive [step]              adaptive view cache: budget, resident
//                                 views with per-segment deltas, candidate
//                                 scores, hit/install/evict telemetry;
//                                 "step" runs one decision cycle first
//   .segments                     live segment inventory: per-segment
//                                 docid range, sealed state, codec block
//                                 mix, view-delta tuples, memory
//   .metrics                      full metrics registry snapshot as JSON
//   .qos                          serving QoS state: per-tenant queue
//                                 depths, concurrency limit, retry
//                                 budget, view-path circuit breaker
//   .trace on|off                 trace every query (prints the span tree
//                                 as JSON after each result)
//   .quit
//
// Blank lines and lines starting with '#' are ignored.

#include <array>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "index/simd_intersect.h"
#include "index/simd_unpack.h"
#include "engine/query_parser.h"
#include "storage/snapshot.h"
#include "util/string_util.h"

namespace {

csr::EvaluationMode g_mode = csr::EvaluationMode::kContextWithViews;
// Optional worker pool. Holds a raw pointer into the current engine, so it
// MUST be reset before the engine is replaced (see .load).
std::unique_ptr<csr::QueryExecutor> g_pool;

void RunQuery(csr::ContextSearchEngine& engine,
              const csr::QueryParser& parser, const std::string& line) {
  auto parsed = parser.Parse(line);
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  csr::EvaluationMode mode = parsed->context.empty()
                                 ? csr::EvaluationMode::kConventional
                                 : g_mode;
  auto result = g_pool ? g_pool->SubmitSearch(parsed.value(), mode).get()
                       : engine.Search(parsed.value(), mode);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  const csr::SearchResult& r = result.value();
  std::printf("[%s] %llu matches, |D_P|=%llu, %.2f ms%s%s%s\n",
              std::string(csr::EvaluationModeName(mode)).c_str(),
              static_cast<unsigned long long>(r.result_count),
              static_cast<unsigned long long>(r.stats.cardinality),
              r.metrics.total_ms, r.metrics.used_view ? " [view]" : "",
              r.metrics.stats_cache_hit ? " [cached]" : "",
              r.metrics.degraded ? " [degraded]" : "");
  if (r.metrics.degraded) {
    std::printf("  degraded: %s\n", r.metrics.degraded_reason.c_str());
  }
  for (size_t i = 0; i < r.top_docs.size() && i < 10; ++i) {
    std::printf("  %2zu. doc %-8u %.4f\n", i + 1, r.top_docs[i].doc,
                r.top_docs[i].score);
  }
  if (r.trace != nullptr) {
    std::printf("%s\n", r.trace->ToJson().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_docs = argc > 1 ? static_cast<uint32_t>(atoi(argv[1])) : 30000;
  csr::CorpusConfig cfg;
  cfg.num_docs = num_docs;
  cfg.seed = 42;
  auto corpus_r = csr::CorpusGenerator(cfg).Generate();
  if (!corpus_r.ok()) return 1;

  csr::EngineConfig ecfg;
  ecfg.stats_cache_capacity = 64;
  // Online adaptive view cache (DESIGN.md §17): observes the queries the
  // offline catalog cannot serve; `.adaptive step` runs decision cycles.
  ecfg.adaptive_view_budget_bytes = 16ull << 20;
  ecfg.adaptive_min_score_ms = 0.5;
  auto engine_r =
      csr::ContextSearchEngine::Build(std::move(corpus_r).value(), ecfg);
  if (!engine_r.ok()) return 1;
  auto engine = std::move(engine_r).value();
  if (!engine->SelectAndMaterializeViews().ok()) return 1;
  csr::QueryParser parser = csr::QueryParser::ForCorpus(engine->corpus());

  std::printf("csr shell — %u docs, %zu concepts, %zu views. Try:\n"
              "  w%u w%u | C0\n",
              num_docs, engine->corpus().ontology.size(),
              engine->catalog().size(),
              csr::CorpusGenerator::ConceptTopicalTerm(
                  0, 0, cfg.vocab_size, cfg.topical_window),
              csr::CorpusGenerator::ConceptTopicalTerm(
                  5, 0, cfg.vocab_size, cfg.topical_window));

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == ".quit") break;
    if (line.rfind(".mode ", 0) == 0) {
      std::string m = line.substr(6);
      if (m == "conv") g_mode = csr::EvaluationMode::kConventional;
      else if (m == "direct") g_mode = csr::EvaluationMode::kContextStraightforward;
      else if (m == "views") g_mode = csr::EvaluationMode::kContextWithViews;
      else { std::printf("unknown mode '%s'\n", m.c_str()); continue; }
      std::printf("mode = %s\n", std::string(csr::EvaluationModeName(g_mode)).c_str());
      continue;
    }
    if (line.rfind(".context ", 0) == 0) {
      auto q = parser.Parse("w0 | " + line.substr(9));
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
        continue;
      }
      uint64_t size = engine->ContextSize(q->context);
      const csr::MaterializedView* v = engine->catalog().FindBest(q->context);
      std::printf("context size %llu (T_C=%llu); covering view: %s\n",
                  static_cast<unsigned long long>(size),
                  static_cast<unsigned long long>(engine->context_threshold()),
                  v ? csr::FormatCount(v->NumTuples()).append(" tuples").c_str()
                    : "none");
      continue;
    }
    if (line.rfind(".pool ", 0) == 0) {
      std::istringstream args(line.substr(6));
      long n = -1;
      std::string flavor;
      args >> n >> flavor;
      if (n < 0) { std::printf("pool size must be >= 0\n"); continue; }
      if (!flavor.empty() && flavor != "staged") {
        std::printf("usage: .pool <n> [staged]\n");
        continue;
      }
      g_pool.reset();  // drain the old pool before rewiring
      if (n == 0) {
        std::printf("pool disabled\n");
      } else {
        csr::ExecutorConfig pcfg;
        pcfg.num_threads = static_cast<uint32_t>(n);
        pcfg.pipeline.enabled = (flavor == "staged");
        g_pool = std::make_unique<csr::QueryExecutor>(engine.get(), pcfg);
        std::printf("pool = %u threads (%s), queue capacity %zu\n",
                    g_pool->num_threads(),
                    pcfg.pipeline.enabled ? "staged pipeline"
                                          : "per-query workers",
                    pcfg.queue_capacity);
      }
      continue;
    }
    if (line == ".pipeline") {
      if (!g_pool) {
        std::printf("no pool (run .pool <n> staged)\n");
        continue;
      }
      csr::PipelineMetrics p = g_pool->pipeline();
      if (!p.enabled) {
        std::printf("pool runs per-query workers (run .pool <n> staged)\n");
        continue;
      }
      struct Row { const char* name; const csr::PipelineStageMetrics* s; };
      const Row rows[] = {{"parse", &p.parse},
                          {"intersect", &p.intersect},
                          {"score", &p.score}};
      for (const Row& row : rows) {
        double occupancy =
            p.uptime_ms > 0 && row.s->workers > 0
                ? row.s->busy_ms_total /
                      (p.uptime_ms * static_cast<double>(row.s->workers))
                : 0.0;
        std::printf("  %-9s workers=%-2u processed=%-8llu depth=%zu "
                    "(max %zu) wait_ms=%-8.2f busy=%.0f%%\n",
                    row.name, row.s->workers,
                    static_cast<unsigned long long>(row.s->processed),
                    row.s->queue_depth, row.s->max_queue_depth,
                    row.s->queue_wait_ms_total, 100.0 * occupancy);
      }
      std::printf("  batches: %llu total, %llu queries batched, max %llu",
                  static_cast<unsigned long long>(p.batches),
                  static_cast<unsigned long long>(p.batched_queries),
                  static_cast<unsigned long long>(p.max_batch));
      std::printf("; sizes:");
      for (size_t k = 1; k < p.batch_size_counts.size(); ++k) {
        if (p.batch_size_counts[k] == 0) continue;
        std::printf(" %zux:%llu", k,
                    static_cast<unsigned long long>(p.batch_size_counts[k]));
      }
      uint64_t lookups = p.arena_hits + p.arena_misses;
      std::printf("\n  arena: %llu hits / %llu misses (%.0f%% hit rate)\n",
                  static_cast<unsigned long long>(p.arena_hits),
                  static_cast<unsigned long long>(p.arena_misses),
                  lookups > 0 ? 100.0 * static_cast<double>(p.arena_hits) /
                                    static_cast<double>(lookups)
                              : 0.0);
      continue;
    }
    if (line.rfind(".save ", 0) == 0) {
      csr::Status s = csr::SaveEngineSnapshot(*engine, line.substr(6));
      std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      continue;
    }
    if (line.rfind(".load ", 0) == 0) {
      auto loaded = csr::LoadEngineSnapshot(line.substr(6), ecfg);
      if (!loaded.ok()) {
        std::printf("error: %s\n", loaded.status().ToString().c_str());
        continue;
      }
      if (g_pool) {
        // The pool references the engine being replaced; drain it first.
        g_pool.reset();
        std::printf("pool disabled (engine replaced; re-run .pool)\n");
      }
      engine = std::move(loaded).value();
      parser = csr::QueryParser::ForCorpus(engine->corpus());
      std::printf("loaded (%zu views)\n", engine->catalog().size());
      continue;
    }
    if (line == ".index compact") {
      if (g_pool) {
        // CompactIndexes requires exclusive access; drain the pool first.
        g_pool.reset();
        std::printf("pool disabled (index mutated; re-run .pool)\n");
      }
      uint64_t before = engine->content_index().MemoryBytes() +
                        engine->predicate_index().MemoryBytes();
      engine->CompactIndexes();
      uint64_t after = engine->content_index().MemoryBytes() +
                       engine->predicate_index().MemoryBytes();
      std::printf("compacted: %s -> %s (%.2fx)\n",
                  csr::FormatBytes(before).c_str(),
                  csr::FormatBytes(after).c_str(),
                  after > 0 ? static_cast<double>(before) /
                                  static_cast<double>(after)
                            : 0.0);
      continue;
    }
    if (line == ".segments") {
      std::vector<csr::SegmentInfo> infos = engine->SegmentInfos();
      std::printf("%zu segments, %llu docs total (%llu base)\n",
                  infos.size(),
                  static_cast<unsigned long long>(engine->total_docs()),
                  static_cast<unsigned long long>(engine->base_docs()));
      uint64_t delta_tuples = 0;
      for (const csr::SegmentInfo& s : infos) {
        std::printf("  seg %-4llu docs [%u, %llu) %-8s "
                    "blocks{varint=%llu for=%llu bitmap=%llu} "
                    "delta_tuples=%llu %s\n",
                    static_cast<unsigned long long>(s.id), s.base,
                    static_cast<unsigned long long>(s.base) + s.num_docs,
                    s.sealed ? "sealed" : "buffer",
                    static_cast<unsigned long long>(s.codec_blocks[0]),
                    static_cast<unsigned long long>(s.codec_blocks[1]),
                    static_cast<unsigned long long>(s.codec_blocks[2]),
                    static_cast<unsigned long long>(s.view_delta_tuples),
                    csr::FormatBytes(s.memory_bytes).c_str());
        // Segment 0 reports the base catalog's tuples, which are already
        // merged; only the extras' deltas are pending.
        if (s.id != 0) delta_tuples += s.view_delta_tuples;
      }
      std::printf("  %llu view-delta tuples pending merge into the base "
                  "catalog\n",
                  static_cast<unsigned long long>(delta_tuples));
      continue;
    }
    if (line == ".metrics") {
      std::printf("%s\n", engine->MetricsSnapshot().ToJson().c_str());
      continue;
    }
    if (line == ".qos") {
      const csr::CircuitBreaker& breaker = engine->view_breaker();
      std::printf("view breaker: %s (trips=%llu recoveries=%llu "
                  "short_circuits=%llu)\n",
                  std::string(breaker.StateName()).c_str(),
                  static_cast<unsigned long long>(breaker.trips()),
                  static_cast<unsigned long long>(breaker.recoveries()),
                  static_cast<unsigned long long>(breaker.short_circuits()));
      csr::RetryBudget& budget = csr::RetryBudget::Global();
      std::printf("retry budget: %.1f/%.1f tokens (withdrawals=%llu "
                  "denials=%llu)\n",
                  budget.tokens(), budget.capacity(),
                  static_cast<unsigned long long>(budget.withdrawals()),
                  static_cast<unsigned long long>(budget.denials()));
      if (!g_pool) {
        std::printf("no pool (run .pool <n> to see admission state)\n");
        continue;
      }
      csr::AdmissionSnapshot a = g_pool->admission();
      std::printf("admission: limit=%u inflight=%u window_p99=%.2fms "
                  "slo=%.0fms\n",
                  a.limit, a.inflight, a.window_p99_ms, a.slo_ms);
      for (const csr::TenantSnapshot& t : a.tenants) {
        std::printf("  tenant %-10s w=%-4.1f depth=%zu/%zu admitted=%llu "
                    "rejected=%llu completed=%llu shed=%llu\n",
                    t.name.c_str(), t.weight, t.depth, t.queue_capacity,
                    static_cast<unsigned long long>(t.admitted),
                    static_cast<unsigned long long>(t.rejected),
                    static_cast<unsigned long long>(t.completed),
                    static_cast<unsigned long long>(t.shed));
      }
      continue;
    }
    if (line.rfind(".trace ", 0) == 0) {
      std::string m = line.substr(7);
      if (m == "on") {
        engine->set_trace_sample_rate(1.0);
        std::printf("tracing every query\n");
      } else if (m == "off") {
        engine->set_trace_sample_rate(0.0);
        std::printf("tracing off\n");
      } else {
        std::printf("usage: .trace on|off\n");
      }
      continue;
    }
    if (line == ".adaptive" || line == ".adaptive step") {
      const csr::AdaptiveViewController* ctl = engine->adaptive();
      if (ctl == nullptr) {
        std::printf("adaptive cache disabled "
                    "(adaptive_view_budget_bytes = 0)\n");
        continue;
      }
      if (line == ".adaptive step") {
        std::printf("step: %s\n", engine->AdaptiveStep()
                                       ? "worked (install/refresh/reject)"
                                       : "nothing to do");
      }
      auto version = ctl->Snapshot();
      const csr::AdaptiveCacheTelemetry& t = ctl->telemetry();
      std::printf("adaptive: version=%llu resident=%s of %s budget "
                  "(%zu views), %zu candidates\n",
                  static_cast<unsigned long long>(version->version),
                  csr::FormatBytes(version->resident_bytes).c_str(),
                  csr::FormatBytes(ctl->config().budget_bytes).c_str(),
                  version->views.size(), ctl->CandidateCount());
      std::printf("  hits=%llu misses=%llu installs=%llu evictions=%llu "
                  "refreshes=%llu rejected=%llu build_failures=%llu "
                  "stale_part_fallbacks=%llu build_ms=%.1f\n",
                  static_cast<unsigned long long>(t.hits.load()),
                  static_cast<unsigned long long>(t.misses.load()),
                  static_cast<unsigned long long>(t.installs.load()),
                  static_cast<unsigned long long>(t.evictions.load()),
                  static_cast<unsigned long long>(t.refreshes.load()),
                  static_cast<unsigned long long>(t.rejected_budget.load()),
                  static_cast<unsigned long long>(t.build_failures.load()),
                  static_cast<unsigned long long>(
                      t.stale_part_fallbacks.load()),
                  static_cast<double>(t.build_micros.load()) / 1000.0);
      for (const auto& av : version->views) {
        std::string cols;
        for (csr::TermId c : av->def.keyword_columns) {
          if (!cols.empty()) cols += ' ';
          cols += "C" + std::to_string(c);
        }
        std::printf("  view {%s}: %s, %llu tuples, base_docs=%llu, "
                    "%zu delta(s), epoch=%llu, score=%.2f\n",
                    cols.c_str(), csr::FormatBytes(av->bytes).c_str(),
                    static_cast<unsigned long long>(av->NumTuples()),
                    static_cast<unsigned long long>(av->base_docs),
                    av->deltas.size(),
                    static_cast<unsigned long long>(av->built_epoch),
                    ctl->ScoreOf(av->def.keyword_columns));
      }
      continue;
    }
    if (line == ".stats") {
      std::printf("docs=%zu views=%zu view_storage=%s tracked=%zu "
                  "cache_hits=%llu\n",
                  engine->corpus().docs.size(), engine->catalog().size(),
                  csr::FormatBytes(engine->catalog().TotalStorageBytes()).c_str(),
                  engine->tracked().size(),
                  static_cast<unsigned long long>(
                      engine->stats_cache() ? engine->stats_cache()->hits()
                                            : 0));
      uint64_t mem = engine->content_index().MemoryBytes() +
                     engine->predicate_index().MemoryBytes();
      uint64_t unc = engine->content_index().UncompressedMemoryBytes() +
                     engine->predicate_index().UncompressedMemoryBytes();
      std::printf("index: %s %s (uncompressed %s, ratio %.2fx)\n",
                  engine->content_index().compressed() ? "compressed"
                                                       : "uncompressed",
                  csr::FormatBytes(mem).c_str(), csr::FormatBytes(unc).c_str(),
                  mem > 0 ? static_cast<double>(unc) /
                                static_cast<double>(mem)
                          : 0.0);
      std::array<uint64_t, 3> blocks =
          engine->content_index().CodecBlockCounts();
      const std::array<uint64_t, 3> pred =
          engine->predicate_index().CodecBlockCounts();
      for (size_t k = 0; k < blocks.size(); ++k) blocks[k] += pred[k];
      std::printf("kernels: dispatch=%s blocks{varint=%llu for=%llu "
                  "bitmap=%llu}\n",
                  std::string(csr::UnpackLevelName(csr::ActiveUnpackLevel()))
                      .c_str(),
                  static_cast<unsigned long long>(blocks[0]),
                  static_cast<unsigned long long>(blocks[1]),
                  static_cast<unsigned long long>(blocks[2]));
      const csr::IntersectTallies it = csr::SnapshotIntersectTallies();
      std::printf("intersect: pairwise=%llu wide_probe=%llu gallop=%llu\n",
                  static_cast<unsigned long long>(it.pairwise),
                  static_cast<unsigned long long>(it.wide_probe),
                  static_cast<unsigned long long>(it.gallop));
      std::printf("intersect ratios:");
      for (size_t k = 0; k < csr::kIntersectRatioBuckets; ++k) {
        if (it.ratio_hist[k] == 0) continue;
        std::printf(" %llux:%llu",
                    static_cast<unsigned long long>(1ull << k),
                    static_cast<unsigned long long>(it.ratio_hist[k]));
      }
      std::printf("\n");
      const csr::DegradationStats& d = engine->degradation();
      std::printf("degradation: quarantined=%llu fallbacks=%llu "
                  "deadline=%llu budget=%llu faults=%llu degraded=%llu\n",
                  static_cast<unsigned long long>(d.views_quarantined),
                  static_cast<unsigned long long>(d.quarantine_fallbacks),
                  static_cast<unsigned long long>(d.deadline_hits),
                  static_cast<unsigned long long>(d.budget_hits),
                  static_cast<unsigned long long>(d.fault_trips),
                  static_cast<unsigned long long>(d.degraded_queries));
      if (g_pool) {
        csr::ExecutorMetrics m = g_pool->metrics();
        std::printf("pool: threads=%u submitted=%llu completed=%llu "
                    "rejected=%llu depth=%zu max_depth=%zu "
                    "wait_ms=%.2f exec_ms=%.2f\n",
                    g_pool->num_threads(),
                    static_cast<unsigned long long>(m.submitted),
                    static_cast<unsigned long long>(m.completed),
                    static_cast<unsigned long long>(m.rejected),
                    m.queue_depth, m.max_queue_depth, m.queue_wait_ms_total,
                    m.exec_ms_total);
      }
      continue;
    }
    RunQuery(*engine, parser, line);
  }
  g_pool.reset();  // drain before `engine` (a main() local) is destroyed
  return 0;
}
