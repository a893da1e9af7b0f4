#include "stats/context_set.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "index/intersection.h"

namespace csr {

ContextSet ContextSet::Build(const InvertedIndex& content_index,
                             const InvertedIndex& predicate_index,
                             std::span<const TermId> context,
                             CostCounters* cost,
                             std::span<const uint16_t> years, YearRange range,
                             ScanGuard* guard) {
  ContextSet set;
  if (context.empty()) return set;
  std::vector<PostingRef> lists;
  lists.reserve(context.size());
  size_t shortest = SIZE_MAX;
  for (TermId m : context) {
    lists.push_back(predicate_index.ref(m, cost));
    shortest = std::min(shortest, lists.back().size());
  }
  // The shortest list bounds |D_P|, so one reservation covers every append.
  set.docs_.reserve(shortest);
  // γ_count is the set's size and γ_sum(len) is summed as members arrive,
  // a window at a time, so the per-member work is one append and one add.
  std::span<const uint32_t> lengths = content_index.doc_lengths();
  Conjunction conj(lists, guard);
  std::vector<DocId> window;
  while (conj.Next(window)) {
    for (DocId d : window) {
      if (range.active() && !(d < years.size() && range.Contains(years[d]))) {
        continue;
      }
      set.docs_.push_back(d);
      set.total_length_ += d < lengths.size() ? lengths[d] : 0;
    }
    window.clear();
  }
  // A multi-predicate or year-restricted set may fill a small part of the
  // reservation; a set outlives the query in the cache, so keep only its
  // members.
  set.docs_.shrink_to_fit();
  set.complete_ = guard == nullptr || !guard->tripped();
  if (cost != nullptr) cost->aggregation_entries += set.Size();
  return set;
}

bool ContextSet::Contains(DocId d) const {
  return std::binary_search(docs_.begin(), docs_.end(), d);
}

KeywordCounts ContextSet::IntersectWith(PostingRef keyword, bool with_tc,
                                        ScanGuard* guard,
                                        std::string* strategy) const {
  KeywordCounts counts;
  if (docs_.empty() || keyword.size() == 0) return counts;
  if (strategy != nullptr) {
    *strategy = docs_.size() <= keyword.size() ? "blockwalk:set-drives"
                                               : "blockwalk:keyword-drives";
  }
  if (keyword.packed != nullptr) {
    const RunJoinResult r =
        JoinRunWithList(docs_, *keyword.packed, with_tc, keyword.cost, guard);
    counts.df = r.matches;
    counts.tc = r.tf_sum;
    return counts;
  }
  // A plain L_w: a two-list Conjunction, whose first step is the same
  // 2-way join (the set drives on a tie).
  const PostingRef lists[] = {ref(keyword.cost), keyword};
  Conjunction conj(lists, guard);
  std::vector<uint32_t> tfs;
  for (std::vector<DocId> docs; conj.Next(docs); docs.clear()) {
    counts.df += docs.size();
    if (!with_tc) continue;
    tfs.resize(docs.size());
    conj.Tfs(1, docs, tfs.data());
    for (uint32_t tf : tfs) counts.tc += tf;
  }
  return counts;
}

}  // namespace csr
