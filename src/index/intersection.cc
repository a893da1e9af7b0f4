#include "index/intersection.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "index/simd_intersect.h"

namespace csr {

ConjunctionIterator::ConjunctionIterator(
    std::span<const PostingList* const> lists, CostCounters* cost,
    ScanGuard* guard)
    : guard_(guard), granted_(guard == nullptr ? UINT64_MAX : 0) {
  std::vector<PostingCursor> cursors;
  cursors.reserve(lists.size());
  for (const PostingList* l : lists) cursors.emplace_back(l, cost);
  Init(std::move(cursors));
}

ConjunctionIterator::ConjunctionIterator(std::vector<PostingCursor> cursors,
                                         ScanGuard* guard)
    : guard_(guard), granted_(guard == nullptr ? UINT64_MAX : 0) {
  Init(std::move(cursors));
}

void ConjunctionIterator::Init(std::vector<PostingCursor> cursors) {
  if (cursors.empty()) {
    at_end_ = true;
    return;
  }
  for (const PostingCursor& c : cursors) {
    if (!c.valid()) {
      at_end_ = true;
      return;
    }
  }
  // Sort list order by length ascending so the shortest list drives.
  std::vector<size_t> order(cursors.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cursors[a].size() < cursors[b].size();
  });
  order_inverse_.resize(cursors.size());
  iters_.reserve(cursors.size());
  for (size_t k = 0; k < order.size(); ++k) {
    iters_.push_back(std::move(cursors[order[k]]));
    order_inverse_[order[k]] = k;
  }
  // Pick each probe cursor's advance strategy once, from its length ratio
  // against the driver. Bitmap-heavy pairs report kBitmapAnd, which the
  // k-way leapfrog can't exploit (that's the block-pairwise kernel's
  // job) — treat it as gallop here.
  strategy_.assign(iters_.size(), IntersectStrategy::kGallop);
  if (iters_.size() > 1) {
    for (size_t k = 0; k < iters_.size(); ++k) {
      size_t other = k == 0 ? 1 : k;
      strategy_[k] = ChooseIntersectStrategy(
          iters_[0].size(), iters_[other].size(), false, false);
      RecordLeapfrogChoice(strategy_[k] == IntersectStrategy::kMerge,
                           iters_[0].size(), iters_[other].size());
    }
  }
  FindNextMatch();
}

void ConjunctionIterator::AdvanceTo(size_t k, DocId target) {
  if (strategy_[k] == IntersectStrategy::kMerge) {
    iters_[k].MergeTo(target);
  } else {
    iters_[k].SkipTo(target);
  }
}

void ConjunctionIterator::FindNextMatch() {
  // Leapfrog: propose the driver's doc, skip every other list to it; on a
  // miss, re-propose the larger doc. Each proposal takes one tick of the
  // grant, counted in a local so the loop never stores through guard_.
  if (first_) {
    first_ = false;
  } else {
    iters_[0].Next();
  }
  uint64_t granted = granted_;
  while (true) {
    if (iters_[0].AtEnd()) {
      at_end_ = true;
      break;
    }
    if (granted == 0) {
      granted = guard_->Grant();
      if (granted == 0) {
        at_end_ = true;
        aborted_ = true;
        break;
      }
    }
    --granted;
    DocId candidate = iters_[0].doc();
    bool all_match = true;
    for (size_t k = 1; k < iters_.size(); ++k) {
      AdvanceTo(k, candidate);
      if (iters_[k].AtEnd()) {
        at_end_ = true;
        break;
      }
      if (iters_[k].doc() != candidate) {
        // Re-align the driver to the larger doc and restart.
        AdvanceTo(0, iters_[k].doc());
        all_match = false;
        break;
      }
    }
    if (at_end_) break;
    if (all_match) {
      current_doc_ = candidate;
      break;
    }
  }
  granted_ = granted;
  if (at_end_) ReleaseGrant();
}

void ConjunctionIterator::ReleaseGrant() {
  if (guard_ == nullptr) return;
  guard_->Refund(granted_);
  granted_ = 0;
}

void ConjunctionIterator::Next() { FindNextMatch(); }

namespace {

/// "merge*2+gallop*1" style roll-up of per-cursor strategy picks. Buckets
/// follow the IntersectStrategy enum order.
std::string FormatStrategyMix(const size_t counts[5]) {
  static constexpr const char* kNames[5] = {"merge", "gallop", "bitmap",
                                            "wideprobe", "simdgallop"};
  std::string out;
  for (size_t s = 0; s < 5; ++s) {
    if (counts[s] == 0) continue;
    if (!out.empty()) out += "+";
    out += std::string(kNames[s]) + "*" + std::to_string(counts[s]);
  }
  if (out.empty()) out = "none";
  return out;
}

}  // namespace

std::string ConjunctionIterator::StrategyMix() const {
  // strategy_[0] describes the driver's own re-alignment advances; probe
  // cursors are 1..n-1. Count both the same way the advances happen.
  size_t counts[5] = {};
  for (IntersectStrategy s : strategy_) counts[static_cast<size_t>(s)]++;
  return FormatStrategyMix(counts);
}

std::vector<DocId> IntersectAll(std::span<const PostingList* const> lists,
                                CostCounters* cost) {
  std::vector<DocId> out;
  for (ConjunctionIterator it(lists, cost); !it.AtEnd(); it.Next()) {
    out.push_back(it.doc());
  }
  return out;
}

uint64_t CountIntersection(std::span<const PostingList* const> lists,
                           CostCounters* cost) {
  uint64_t n = 0;
  for (ConjunctionIterator it(lists, cost); !it.AtEnd(); it.Next()) ++n;
  return n;
}

bool PairwiseEligible(const std::vector<PostingCursor>& cursors) {
  return cursors.size() == 2 && cursors[0].valid() && cursors[1].valid() &&
         cursors[0].packed_source() != nullptr &&
         cursors[1].packed_source() != nullptr;
}

uint64_t CountIntersection(std::vector<PostingCursor> cursors,
                           ScanGuard* guard) {
  if (PairwiseEligible(cursors)) {
    return CountPairwiseIntersection(
        *cursors[0].packed_source(), *cursors[1].packed_source(),
        cursors[0].cost(), cursors[1].cost(), guard);
  }
  uint64_t n = 0;
  for (ConjunctionIterator it(std::move(cursors), guard); !it.AtEnd();
       it.Next()) {
    ++n;
  }
  return n;
}

AggregationResult IntersectAndAggregate(
    std::span<const PostingList* const> lists,
    std::span<const uint32_t> doc_lengths, CostCounters* cost,
    ScanGuard* guard) {
  AggregationResult agg;
  for (ConjunctionIterator it(lists, cost, guard); !it.AtEnd(); it.Next()) {
    agg.count++;
    agg.sum_len += doc_lengths[it.doc()];
    if (cost != nullptr) cost->aggregation_entries++;
  }
  return agg;
}

void AttrIntersectionCostDelta(TraceSpan* span, const CostCounters& after,
                               const CostCounters& before) {
  if (span == nullptr) return;
  span->Attr("entries_scanned", after.entries_scanned - before.entries_scanned);
  span->Attr("segments_touched",
             after.segments_touched - before.segments_touched);
  span->Attr("skips_taken", after.skips_taken - before.skips_taken);
  span->Attr("bytes_touched", after.bytes_touched - before.bytes_touched);
  span->Attr("blocks_skipped", after.blocks_skipped - before.blocks_skipped);
}

}  // namespace csr
