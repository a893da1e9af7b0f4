#include "stats/context_set.h"

#include <algorithm>
#include <limits>
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
  // The shortest predicate list bounds |D_P|, so one reservation covers
  // every append. A missing list means an unsatisfiable context.
  size_t shortest = std::numeric_limits<size_t>::max();
  for (TermId m : context) {
    shortest = std::min<size_t>(shortest, predicate_index.df(m));
  }
  if (shortest == 0) return set;
  set.docs_.Reserve(shortest);

  std::vector<PostingCursor> cursors;
  cursors.reserve(context.size());
  for (TermId m : context) cursors.push_back(predicate_index.cursor(m, cost));
  // γ_count is the set's size and γ_sum(len) is summed as members arrive;
  // the lean closures keep the per-match work at one append and one add.
  std::span<const uint32_t> lengths = content_index.doc_lengths();
  PostingList& docs = set.docs_;
  uint64_t total_length = 0;
  auto add = [&docs, &total_length, lengths](DocId d) {
    docs.Append(d, 1);
    total_length += d < lengths.size() ? lengths[d] : 0;
  };
  bool aborted;
  if (!range.active()) {
    aborted = ScanConjunction(std::move(cursors), guard, add);
  } else {
    aborted = ScanConjunction(std::move(cursors), guard,
                              [&add, years, range](DocId d) {
                                if (d < years.size() &&
                                    range.Contains(years[d])) {
                                  add(d);
                                }
                              });
  }
  docs.FinishBuild();
  set.total_length_ = total_length;
  set.complete_ = !aborted;
  if (cost != nullptr) cost->aggregation_entries += set.Size();
  return set;
}

bool ContextSet::Contains(DocId d) const {
  size_t lo = 0;
  size_t hi = docs_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (docs_.at(mid).doc < d) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < docs_.size() && docs_.at(lo).doc == d;
}

KeywordCounts ContextSet::IntersectWith(PostingCursor keyword, bool with_tc,
                                        ScanGuard* guard,
                                        std::string* strategy) const {
  KeywordCounts counts;
  if (docs_.empty() || !keyword.valid()) return counts;
  const std::span<const Posting> members = docs_.postings();
  CostCounters* cost = keyword.cost();
  if (strategy != nullptr) {
    *strategy = members.size() <= keyword.size() ? "blockwalk:set-drives"
                                                 : "blockwalk:keyword-drives";
  }
  if (const CompressedPostingList* packed = keyword.packed_source()) {
    RunJoinResult r = JoinRunWithList(members, *packed, with_tc, cost, guard);
    counts.df = r.matches;
    counts.tc = r.tf_sum;
    return counts;
  }
  // A plain L_w: each docid of the shorter side is binary-searched in the
  // rest of the longer, ticking the guard once per docid up to the longer
  // side's last one — the count JoinRunWithList charges, so budgets trip
  // alike for both representations.
  const std::span<const Posting> list = keyword.plain_source()->postings();
  const bool set_drives = members.size() <= list.size();
  std::span<const Posting> drv = set_drives ? members : list;
  std::span<const Posting> oth = set_drives ? list : members;
  const DocId oth_last = oth.back().doc;
  auto it = oth.begin();
  for (const Posting& p : drv) {
    if (p.doc > oth_last) break;
    if (guard != nullptr && guard->Tick()) break;
    it = std::lower_bound(it, oth.end(), p.doc,
                          [](const Posting& q, DocId v) { return q.doc < v; });
    if (it->doc != p.doc) continue;
    ++counts.df;
    if (with_tc) counts.tc += set_drives ? it->tf : p.tf;
  }
  if (cost != nullptr) cost->entries_scanned += drv.size();
  return counts;
}

}  // namespace csr
