#include "stats/context_set.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "index/codec.h"

namespace csr {

namespace {

inline DocId DocOf(const Posting& p) { return p.doc; }
inline DocId DocOf(DocId d) { return d; }

/// The plain-list form of the join tick rule (codec.h): each docid of
/// `drv` up to `oth`'s last docid is binary-searched in the rest of
/// `oth`, and the guard is charged for up to one segment of such docids
/// (PostingList::kDefaultSegmentSize) before they are probed. Calls
/// on_match(i, j) for every drv[i] == oth[j], in increasing order, and
/// stops when the guard trips.
template <typename Drv, typename Oth, typename OnMatch>
void SearchJoin(std::span<const Drv> drv, std::span<const Oth> oth,
                ScanGuard* guard, OnMatch&& on_match) {
  if (drv.empty() || oth.empty()) return;
  const DocId oth_last = DocOf(oth.back());
  const size_t n = static_cast<size_t>(
      std::upper_bound(drv.begin(), drv.end(), oth_last,
                       [](DocId v, const Drv& p) { return v < DocOf(p); }) -
      drv.begin());
  constexpr size_t kChunk = PostingList::kDefaultSegmentSize;
  size_t j = 0;
  for (size_t from = 0; from < n; from += kChunk) {
    const size_t to = std::min(n, from + kChunk);
    if (guard != nullptr && guard->Charge(to - from)) return;
    for (size_t i = from; i < to; ++i) {
      const DocId d = DocOf(drv[i]);
      j = static_cast<size_t>(
          std::lower_bound(
              oth.begin() + j, oth.end(), d,
              [](const Oth& q, DocId v) { return DocOf(q) < v; }) -
          oth.begin());
      if (DocOf(oth[j]) == d) on_match(i, j);
    }
  }
}

/// Hands the docids of `run` that the plain list holds to `on_batch`, by
/// SearchJoin (the run is the shorter side on a tie).
template <typename Run>
void PlainSemiJoin(
    std::span<const Run> run, const PostingCursor& list, ScanGuard* guard,
    const std::function<void(std::span<const DocId>)>& on_batch) {
  const std::span<const Posting> postings = list.plain_source()->postings();
  std::vector<DocId> out;
  if (run.size() <= postings.size()) {
    SearchJoin(run, postings, guard,
               [&](size_t i, size_t) { out.push_back(DocOf(run[i])); });
  } else {
    SearchJoin(postings, run, guard,
               [&](size_t i, size_t) { out.push_back(postings[i].doc); });
  }
  if (list.cost() != nullptr) {
    list.cost()->entries_scanned += std::min(run.size(), postings.size());
  }
  if (!out.empty()) on_batch(out);
}

}  // namespace

ContextSet ContextSet::Build(const InvertedIndex& content_index,
                             const InvertedIndex& predicate_index,
                             std::span<const TermId> context,
                             CostCounters* cost,
                             std::span<const uint16_t> years, YearRange range,
                             ScanGuard* guard) {
  ContextSet set;
  if (context.empty()) return set;
  // Shortest list first (a stable order, so ties keep the context order):
  // it bounds |D_P|, so one reservation covers every append. A missing
  // list means an unsatisfiable context.
  std::vector<TermId> order(context.begin(), context.end());
  std::stable_sort(order.begin(), order.end(), [&](TermId a, TermId b) {
    return predicate_index.df(a) < predicate_index.df(b);
  });
  std::vector<PostingCursor> lists;
  lists.reserve(order.size());
  for (TermId m : order) {
    lists.push_back(predicate_index.cursor(m, cost));
    if (!lists.back().valid()) return set;
  }
  set.docs_.Reserve(lists[0].size());

  // γ_count is the set's size and γ_sum(len) is summed as members arrive,
  // a batch at a time, so the per-member work is one append and one add.
  std::span<const uint32_t> lengths = content_index.doc_lengths();
  PostingList& docs = set.docs_;
  uint64_t total_length = 0;
  auto add = [&docs, &total_length, lengths](DocId d) {
    docs.Append(d, 1);
    total_length += d < lengths.size() ? lengths[d] : 0;
  };
  const std::function<void(std::span<const DocId>)> add_batch =
      [&add, years, range](std::span<const DocId> batch) {
        if (!range.active()) {
          for (DocId d : batch) add(d);
          return;
        }
        for (DocId d : batch) {
          if (d < years.size() && range.Contains(years[d])) add(d);
        }
      };

  if (lists.size() == 1) {
    // One list is its own conjunction: walk it, charging one tick per
    // posting a segment's worth at a time.
    constexpr size_t kChunk = PostingList::kDefaultSegmentSize;
    std::vector<DocId> batch;
    batch.reserve(kChunk);
    uint64_t left = lists[0].size();
    for (PostingCursor& c = lists[0]; left > 0;) {
      const uint64_t n = std::min<uint64_t>(left, kChunk);
      if (guard != nullptr && guard->Charge(n)) break;
      batch.clear();
      for (uint64_t k = 0; k < n; ++k, c.Next()) batch.push_back(c.doc());
      add_batch(batch);
      left -= n;
    }
  } else {
    // The two shortest lists join first — on the block-pairwise kernel
    // when both are compressed — and the running result then semijoins
    // each further list in ascending length. Every step but the last
    // feeds the next one's run; the last feeds the set.
    std::vector<DocId> run;
    std::vector<DocId> next;
    const std::function<void(std::span<const DocId>)> to_next =
        [&next](std::span<const DocId> batch) {
          next.insert(next.end(), batch.begin(), batch.end());
        };
    auto sink = [&](size_t step) -> const auto& {
      return step + 1 == lists.size() ? add_batch : to_next;
    };
    if (lists.size() > 2) next.reserve(lists[0].size());
    // One index holds every list in one representation.
    if (const CompressedPostingList* first = lists[0].packed_source()) {
      ScanPairwiseIntersectionBatches(*first, *lists[1].packed_source(),
                                      lists[0].cost(), lists[1].cost(),
                                      sink(1), guard);
    } else {
      PlainSemiJoin(lists[0].plain_source()->postings(), lists[1], guard,
                    sink(1));
    }
    for (size_t step = 2; step < lists.size(); ++step) {
      if (guard != nullptr && guard->tripped()) break;
      run.swap(next);
      next.clear();
      if (run.empty()) break;
      if (const CompressedPostingList* packed = lists[step].packed_source()) {
        SemiJoinRunWithList(run, *packed, lists[step].cost(), guard,
                            sink(step));
      } else {
        PlainSemiJoin(std::span<const DocId>(run), lists[step], guard,
                      sink(step));
      }
    }
  }
  docs.FinishBuild();
  set.total_length_ = total_length;
  set.complete_ = guard == nullptr || !guard->tripped();
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
  // A plain L_w: the same join tick rule, by SearchJoin.
  const std::span<const Posting> list = keyword.plain_source()->postings();
  if (members.size() <= list.size()) {
    SearchJoin(members, list, guard, [&](size_t, size_t j) {
      ++counts.df;
      if (with_tc) counts.tc += list[j].tf;
    });
  } else {
    SearchJoin(list, members, guard, [&](size_t i, size_t) {
      ++counts.df;
      if (with_tc) counts.tc += list[i].tf;
    });
  }
  if (cost != nullptr) {
    cost->entries_scanned += std::min(members.size(), list.size());
  }
  return counts;
}

}  // namespace csr
