#include "stats/collector.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "index/intersection.h"

namespace csr {

CollectionStats GlobalCollectionStats(const InvertedIndex& content_index,
                                      std::span<const TermId> keywords) {
  CollectionStats stats;
  stats.cardinality = content_index.num_docs();
  stats.total_length = content_index.total_length();
  stats.df.reserve(keywords.size());
  stats.tc.reserve(keywords.size());
  for (TermId w : keywords) {
    stats.df.push_back(content_index.df(w));
    stats.tc.push_back(content_index.tc(w));
  }
  return stats;
}

CollectionStats StraightforwardCollectionStats(
    const InvertedIndex& content_index, const InvertedIndex& predicate_index,
    std::span<const TermId> context, std::span<const TermId> keywords,
    bool compute_tc, CostCounters* cost, std::span<const uint16_t> years,
    YearRange range, ScanGuard* guard, TraceContext tctx,
    ContextSet* set_out) {
  CollectionStats stats;
  const bool tracing = tctx.active() && cost != nullptr;

  // D_P, with γ_count and γ_sum(len) over L_m1 ∩ ... ∩ L_mc (Figure 3,
  // bottom) and the optional year predicate applied as it is built. A
  // missing context list means an unsatisfiable context: no join runs.
  ContextSet set;
  if (std::all_of(context.begin(), context.end(),
                  [&](TermId m) { return predicate_index.df(m) != 0; })) {
    SpanGuard span(tctx, "intersect:context");
    CostCounters before;
    if (tracing) {
      before = *cost;
      // The joins ContextSet::Build runs: a walk of one list, else the
      // pairwise join of the two shortest and one semijoin per further one.
      std::string strategy = context.size() == 1 ? "walk" : "pairwise";
      if (context.size() > 2) {
        strategy += "+semijoin*" + std::to_string(context.size() - 2);
      }
      span.Attr("lists", static_cast<uint64_t>(context.size()));
      span.Attr("strategy", strategy);
    }
    set = ContextSet::Build(content_index, predicate_index, context, cost,
                            years, range, guard);
    if (tracing) {
      span.Attr("cardinality", static_cast<uint64_t>(set.Size()));
      AttrIntersectionCostDelta(span.get(), *cost, before);
    }
  }
  stats.cardinality = set.Size();
  stats.total_length = set.total_length();

  // df (and tc) per keyword: L_wi ⋈ D_P.
  stats.df.reserve(keywords.size());
  if (compute_tc) stats.tc.reserve(keywords.size());
  for (TermId w : keywords) {
    KeywordCounts counts;
    if (content_index.df(w) != 0 && set.Size() != 0) {
      SpanGuard span(tctx, "intersect:df");
      CostCounters before;
      std::string strategy;
      if (tracing) before = *cost;
      counts = set.IntersectWith(content_index.cursor(w, cost), compute_tc,
                                 guard, tracing ? &strategy : nullptr);
      if (tracing) {
        span.Attr("keyword", static_cast<uint64_t>(w));
        span.Attr("lists", static_cast<uint64_t>(2));
        span.Attr("strategy", strategy);
        span.Attr("df", counts.df);
        AttrIntersectionCostDelta(span.get(), *cost, before);
      }
    }
    stats.df.push_back(counts.df);
    if (compute_tc) stats.tc.push_back(counts.tc);
  }
  if (set_out != nullptr) *set_out = std::move(set);
  return stats;
}

KeywordCounts CountKeywordInContext(
    const InvertedIndex& content_index, const InvertedIndex& predicate_index,
    std::span<const TermId> context, TermId keyword, bool with_tc,
    CostCounters* cost, std::span<const uint16_t> years, YearRange range,
    ScanGuard* guard, std::string* strategy) {
  KeywordCounts counts;
  std::vector<PostingCursor> cursors;
  cursors.reserve(context.size() + 1);
  cursors.push_back(content_index.cursor(keyword, cost));
  if (!cursors.back().valid()) return counts;
  for (TermId m : context) {
    cursors.push_back(predicate_index.cursor(m, cost));
    if (!cursors.back().valid()) return counts;
  }
  ConjunctionIterator it(std::move(cursors), guard);
  if (strategy != nullptr) *strategy = it.StrategyMix();
  for (; !it.AtEnd(); it.Next()) {
    DocId d = it.doc();
    if (range.active() && !(d < years.size() && range.Contains(years[d]))) {
      continue;
    }
    ++counts.df;
    if (with_tc) counts.tc += it.tf(0);  // tf in L_w (caller order index 0)
  }
  return counts;
}

}  // namespace csr
