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
      span.Attr("lists", static_cast<uint64_t>(context.size()));
      span.Attr("strategy", ConjunctionPlan(context.size()));
    }
    set = ContextSet::Build(content_index, predicate_index, context, cost,
                            years, range, guard);
    if (tracing) {
      span.Attr("cardinality", static_cast<uint64_t>(set.Size()));
      AttrIntersectionCostDelta(span.get(), *cost, before);
    }
  }
  stats = ContextSetStats(content_index, set, keywords, compute_tc, cost,
                          guard, tctx);
  if (set_out != nullptr) *set_out = std::move(set);
  return stats;
}

CollectionStats ContextSetStats(const InvertedIndex& content_index,
                                const ContextSet& set,
                                std::span<const TermId> keywords,
                                bool compute_tc, CostCounters* cost,
                                ScanGuard* guard, TraceContext tctx) {
  CollectionStats stats;
  const bool tracing = tctx.active() && cost != nullptr;
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
      counts = set.IntersectWith(content_index.ref(w, cost), compute_tc,
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
  return stats;
}

KeywordCounts CountKeywordInContext(
    const InvertedIndex& content_index, const InvertedIndex& predicate_index,
    std::span<const TermId> context, TermId keyword, bool with_tc,
    CostCounters* cost, std::span<const uint16_t> years, YearRange range,
    ScanGuard* guard) {
  std::vector<PostingRef> lists = {content_index.ref(keyword, cost)};
  for (TermId m : context) lists.push_back(predicate_index.ref(m, cost));
  Conjunction conj(lists, guard);
  KeywordCounts counts;
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  while (conj.Next(docs)) {
    if (range.active()) {
      std::erase_if(docs, [&](DocId d) {
        return !(d < years.size() && range.Contains(years[d]));
      });
    }
    counts.df += docs.size();
    if (with_tc) {
      tfs.resize(docs.size());
      conj.Tfs(0, docs, tfs.data());  // L_w is caller list 0
      for (uint32_t tf : tfs) counts.tc += tf;
    }
    docs.clear();
  }
  return counts;
}

}  // namespace csr
