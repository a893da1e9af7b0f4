#ifndef CSR_STATS_COLLECTOR_H_
#define CSR_STATS_COLLECTOR_H_

#include <span>
#include <string>

#include "index/cost_model.h"
#include "index/inverted_index.h"
#include "index/scan_guard.h"
#include "obs/trace.h"
#include "stats/context_set.h"
#include "stats/statistics.h"
#include "util/types.h"

namespace csr {

/// Computes S_c(D) for the whole collection — the conventional-ranking
/// statistics, all precomputable at indexing time.
CollectionStats GlobalCollectionStats(const InvertedIndex& content_index,
                                      std::span<const TermId> keywords);

/// Computes S_c(D_P) exactly by the straightforward plan of Section 3.1
/// (Figure 3): one conjunction of the context predicate lists materializes
/// D_P as a ContextSet, with aggregation (γ_count, γ_sum over document
/// length) on the way, and each keyword list is joined with the set for df
/// (and tc). This is both the baseline evaluation strategy the paper
/// measures and the ground truth that view-based computation is tested
/// against.
///
/// `context` must be non-empty and sorted. Cost counters, when supplied,
/// are charged per the Section 3.2.1 model instrumentation.
/// `years`/`range` implement the Section 7 time extension: when `range` is
/// active, the context is additionally restricted to documents whose
/// publication year falls inside it; `years[d]` must then give document
/// d's year.
///
/// When a `guard` is supplied and trips mid-plan, the scan stops early and
/// the returned statistics are PARTIAL — the caller must inspect
/// guard->tripped() and discard or degrade; partial statistics are never
/// silently usable.
///
/// When `tctx` is active (the query is trace-sampled), every posting-list
/// intersection records a child span — "intersect:context" for building
/// the set, one "intersect:df" per keyword — carrying the cost-counter
/// deltas (bytes_touched, blocks_skipped, ...) and the intersect strategy
/// the cost model chose. Inactive contexts cost one null check per span.
///
/// When `set_out` is non-null it receives the set, for retrieval to join
/// with instead of the predicate lists (check complete() first).
CollectionStats StraightforwardCollectionStats(
    const InvertedIndex& content_index, const InvertedIndex& predicate_index,
    std::span<const TermId> context, std::span<const TermId> keywords,
    bool compute_tc = false, CostCounters* cost = nullptr,
    std::span<const uint16_t> years = {}, YearRange range = {},
    ScanGuard* guard = nullptr, TraceContext tctx = {},
    ContextSet* set_out = nullptr);

/// The statistics of the straightforward plan from an already built D_P
/// (a ContextSet served by a cache): |D_P| and len(D_P) from the set, and
/// each keyword's df (and tc) by one 2-way join L_w ⋈ D_P — the second
/// half of StraightforwardCollectionStats, with the same per-keyword
/// "intersect:df" spans, cost charges and guard ticks.
CollectionStats ContextSetStats(const InvertedIndex& content_index,
                                const ContextSet& set,
                                std::span<const TermId> keywords,
                                bool compute_tc = false,
                                CostCounters* cost = nullptr,
                                ScanGuard* guard = nullptr,
                                TraceContext tctx = {});

/// df(w, D_P) and (when `with_tc`) tc(w, D_P) of one keyword over one
/// part by one (m+1)-way Conjunction of L_w with the context's predicate
/// lists, under the year filter of `years`/`range` — no ContextSet is
/// built. The view plans use it for keywords without a parameter column
/// while no set of the context is at hand (a context's first use, before
/// the engine's context-set cache holds it): the short L_w drives, which
/// costs less than materializing D_P for one query. df counts the chain's
/// year-filtered survivors; tc reads their tfs in L_w, decoding only L_w
/// blocks that hold one.
KeywordCounts CountKeywordInContext(
    const InvertedIndex& content_index, const InvertedIndex& predicate_index,
    std::span<const TermId> context, TermId keyword, bool with_tc,
    CostCounters* cost, std::span<const uint16_t> years, YearRange range,
    ScanGuard* guard);

}  // namespace csr

#endif  // CSR_STATS_COLLECTOR_H_
