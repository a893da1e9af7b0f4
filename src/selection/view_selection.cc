#include "selection/view_selection.h"

#include <algorithm>

#include <memory>
#include <unordered_map>

#include "index/intersection.h"
#include "util/hash.h"

namespace csr {

SupportFn MakeIndexSupportFn(const InvertedIndex& predicate_index) {
  return [&predicate_index](const TermIdSet& itemset) -> uint64_t {
    std::vector<PostingRef> lists;
    lists.reserve(itemset.size());
    for (TermId m : itemset) lists.push_back(predicate_index.ref(m));
    return CountIntersection(lists);
  };
}

ViewSizeFn MemoizeViewSize(ViewSizeFn fn) {
  auto cache = std::make_shared<
      std::unordered_map<TermIdSet, uint64_t, TermIdSetHash>>();
  return [fn = std::move(fn), cache](const TermIdSet& k) -> uint64_t {
    auto it = cache->find(k);
    if (it != cache->end()) return it->second;
    uint64_t v = fn(k);
    cache->emplace(k, v);
    return v;
  };
}

SelectionOutcome SelectViewsMiningBased(
    std::vector<FrequentItemset> combinations, const ViewSizeFn& raw_view_size,
    uint64_t view_size_threshold) {
  SelectionOutcome out;
  ViewSizeFn view_size = MemoizeViewSize(raw_view_size);

  // Line 1: remove combinations that are subsets of other combinations.
  std::vector<FrequentItemset> maximal = FilterMaximal(std::move(combinations));

  // Work on the remaining set, largest first (Line 5 picks the largest).
  std::vector<TermIdSet> pending;
  pending.reserve(maximal.size());
  for (auto& f : maximal) pending.push_back(std::move(f.items));
  std::sort(pending.begin(), pending.end(),
            [](const TermIdSet& a, const TermIdSet& b) {
              return a.size() < b.size();  // pop_back takes the largest
            });

  auto overlap = [](const TermIdSet& a, const TermIdSet& b) -> size_t {
    size_t i = 0, j = 0, n = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++n;
        ++i;
        ++j;
      }
    }
    return n;
  };

  while (!pending.empty()) {
    // Seed the view with the largest remaining combination.
    TermIdSet k = std::move(pending.back());
    pending.pop_back();
    if (view_size(k) > view_size_threshold) out.oversized_combinations++;

    // Greedy extension: absorb the maximal-overlap combination whose union
    // keeps the view under T_V.
    while (!pending.empty() && view_size(k) < view_size_threshold) {
      size_t best = SIZE_MAX;
      size_t best_overlap = 0;
      TermIdSet best_union;
      for (size_t i = 0; i < pending.size(); ++i) {
        size_t ov = overlap(k, pending[i]);
        if (best != SIZE_MAX && ov < best_overlap) continue;
        TermIdSet merged;
        std::set_union(k.begin(), k.end(), pending[i].begin(),
                       pending[i].end(), std::back_inserter(merged));
        if (view_size(merged) >= view_size_threshold) continue;
        if (best == SIZE_MAX || ov > best_overlap) {
          best = i;
          best_overlap = ov;
          best_union = std::move(merged);
        }
      }
      if (best == SIZE_MAX) break;
      k = std::move(best_union);
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(best));
    }
    out.views.push_back(ViewDefinition{std::move(k)});
  }
  return out;
}

}  // namespace csr
