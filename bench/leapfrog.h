#ifndef CSR_BENCH_LEAPFROG_H_
#define CSR_BENCH_LEAPFROG_H_

// The doc-at-a-time leapfrog join, kept here as the baseline the A1 and
// A5 ablations measure against: the shortest cursor proposes a docid,
// every other cursor advances to it (a linear MergeTo for comparably
// sized lists, a galloping SkipTo otherwise, per ChooseIntersectStrategy),
// and a miss re-proposes the larger docid. The engine runs every
// conjunction on the block-kernel chain instead (index/intersection.h).

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "index/cost_model.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"

namespace csr::bench {

/// Calls on_match(doc, cursors) for every docid in all cursors, ascending;
/// `cursors` are shortest first, each positioned on the match.
template <typename OnMatch>
void Leapfrog(std::vector<PostingCursor> cursors, OnMatch&& on_match) {
  if (cursors.empty()) return;
  for (const PostingCursor& c : cursors) {
    if (!c.valid()) return;
  }
  // Shortest first: sort indexes, then move each cursor once.
  std::vector<size_t> order(cursors.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cursors[a].size() < cursors[b].size();
  });
  std::vector<PostingCursor> sorted;
  sorted.reserve(cursors.size());
  for (size_t k : order) sorted.push_back(std::move(cursors[k]));
  cursors = std::move(sorted);
  std::vector<bool> merge(cursors.size());
  for (size_t k = 0; k < cursors.size(); ++k) {
    const size_t other = k == 0 ? std::min<size_t>(1, cursors.size() - 1) : k;
    merge[k] = ChooseIntersectStrategy(cursors[0].size(),
                                       cursors[other].size(), false,
                                       false) == IntersectStrategy::kMerge;
  }
  auto advance = [&](size_t k, DocId target) {
    if (merge[k]) {
      cursors[k].MergeTo(target);
    } else {
      cursors[k].SkipTo(target);
    }
  };
  while (!cursors[0].AtEnd()) {
    const DocId candidate = cursors[0].doc();
    bool all = true;
    for (size_t k = 1; k < cursors.size(); ++k) {
      advance(k, candidate);
      if (cursors[k].AtEnd()) return;
      if (cursors[k].doc() != candidate) {
        advance(0, cursors[k].doc());
        all = false;
        break;
      }
    }
    if (all) {
      on_match(candidate, cursors);
      cursors[0].Next();
    }
  }
}

inline uint64_t LeapfrogCount(std::vector<PostingCursor> cursors) {
  uint64_t n = 0;
  Leapfrog(std::move(cursors), [&n](DocId, const auto&) { ++n; });
  return n;
}

inline uint64_t LeapfrogCount(std::span<const PostingList* const> lists,
                              CostCounters* cost = nullptr) {
  std::vector<PostingCursor> cursors;
  for (const PostingList* l : lists) cursors.emplace_back(l, cost);
  return LeapfrogCount(std::move(cursors));
}

}  // namespace csr::bench

#endif  // CSR_BENCH_LEAPFROG_H_
