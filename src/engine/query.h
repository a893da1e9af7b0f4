#ifndef CSR_ENGINE_QUERY_H_
#define CSR_ENGINE_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "index/cost_model.h"
#include "stats/statistics.h"
#include "util/types.h"

namespace csr {

class QueryTrace;  // obs/trace.h

/// A context-sensitive query Q_c = Q_k | P (Section 2.1): conventional
/// keywords plus a conjunctive context specification over predicate terms.
struct ContextQuery {
  ContextQuery() = default;
  ContextQuery(std::vector<TermId> k, TermIdSet p, YearRange y = {})
      : keywords(std::move(k)), context(std::move(p)), years(y) {}

  /// Q_k: content keywords (may repeat; repetition feeds tq).
  std::vector<TermId> keywords;

  /// P: sorted, deduplicated context predicates. Empty means "whole
  /// collection".
  TermIdSet context;

  /// Optional time restriction (Section 7 extension): when active, the
  /// context (and the result set) is limited to documents published within
  /// the inclusive range.
  YearRange years;
};

/// How the engine evaluates a query:
///  - kConventional: the paper's baseline Q_t = Q_k ∪ P. P filters the
///    result set but contributes nothing to scores; statistics come from
///    the whole collection (precomputed at indexing time).
///  - kContextStraightforward: context-sensitive ranking, statistics
///    computed online by the Figure 3 plan (intersections + aggregations).
///  - kContextWithViews: context-sensitive ranking, statistics from the
///    smallest usable materialized view, falling back to query-time
///    computation for uncovered keywords, and to the straightforward plan
///    when no view covers P.
enum class EvaluationMode {
  kConventional,
  kContextStraightforward,
  kContextWithViews,
};

std::string_view EvaluationModeName(EvaluationMode mode);

struct SearchResultEntry {
  DocId doc = kInvalidDocId;
  double score = 0.0;
};

/// Per-query execution metrics, used by the Figure 7/8 benches.
struct SearchMetrics {
  double total_ms = 0.0;
  double stats_ms = 0.0;      // collection-statistics phase
  double retrieval_ms = 0.0;  // conjunction + scoring phase
  bool used_view = false;
  /// The statistics came from an adaptively materialized view (online
  /// selection cache) rather than the offline catalog. Implies used_view.
  bool used_adaptive_view = false;
  bool fell_back_to_straightforward = false;
  bool stats_cache_hit = false;
  /// Parts whose context set came from the context-set cache (a plan
  /// choice, like a stats-cache hit): their statistics (and, on a
  /// straightforward-served part, retrieval) joined the cached D_P instead
  /// of building it or running the predicate-list chain.
  uint32_t context_set_hits = 0;
  uint64_t view_tuples_scanned = 0;
  uint32_t keywords_uncovered_by_view = 0;
  CostCounters cost;

  /// True when the engine could not execute the ideal plan and degraded
  /// rather than fail: the view it would have used was quarantined at
  /// snapshot load, the context-statistics phase blew its deadline or
  /// posting budget (statistics degrade to global), or retrieval stopped
  /// early (top-k is a partial ranking of the documents seen so far).
  /// `degraded_reason` says which. Degraded results are well-formed and
  /// safe to serve; callers that prefer failure set
  /// EngineConfig::degrade_gracefully = false.
  bool degraded = false;
  std::string degraded_reason;

  /// Human-readable description of the executed plan (EXPLAIN-style).
  std::string plan;
};

struct SearchResult {
  /// Top-K documents, best first (score desc, docid asc on ties).
  std::vector<SearchResultEntry> top_docs;

  /// Total number of matching documents (the unranked result size).
  uint64_t result_count = 0;

  /// The collection statistics the ranking actually used.
  CollectionStats stats;

  SearchMetrics metrics;

  /// Span tree for this query, present only when the query was
  /// trace-sampled (EngineConfig::trace_sample_rate). Immutable once
  /// Search returns; serialize with QueryTrace::ToJson().
  std::shared_ptr<const QueryTrace> trace;
};

}  // namespace csr

#endif  // CSR_ENGINE_QUERY_H_
