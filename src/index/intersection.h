#ifndef CSR_INDEX_INTERSECTION_H_
#define CSR_INDEX_INTERSECTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index/cost_model.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/scan_guard.h"
#include "obs/trace.h"
#include "util/types.h"

namespace csr {

/// k-way conjunction over posting cursors using skip-based leapfrog joins
/// with galloping SkipTo. Lists are visited most-selective (shortest)
/// first, so the driver list bounds the number of probes — the
/// optimization the paper relies on for conventional query evaluation
/// (Section 3.2.2). Cursors type-erase the posting representation, so a
/// conjunction can mix uncompressed PostingLists and block-compressed
/// CompressedPostingLists freely; guard ticks and cost counters are
/// charged identically either way.
///
/// Usage:
///   ConjunctionIterator it(lists, &cost);
///   for (; !it.AtEnd(); it.Next()) {
///     DocId d = it.doc();
///     uint32_t tf0 = it.tf(0);   // tf in lists[0] (caller order)
///   }
class ConjunctionIterator {
 public:
  /// `lists` must be non-empty; null or empty lists yield an immediately
  /// exhausted iterator. An optional `guard` is charged one tick per
  /// candidate advance, counted down locally from ScanGuard::Grant and
  /// refunded when the iterator ends or dies; when it trips (deadline,
  /// budget, or injected fault), the iterator stops early and reports
  /// aborted().
  ConjunctionIterator(std::span<const PostingList* const> lists,
                      CostCounters* cost = nullptr,
                      ScanGuard* guard = nullptr);

  /// Cursor form: cost counters are already bound inside each cursor. Any
  /// invalid cursor (missing term) yields an exhausted iterator.
  explicit ConjunctionIterator(std::vector<PostingCursor> cursors,
                               ScanGuard* guard = nullptr);

  ~ConjunctionIterator() { ReleaseGrant(); }
  ConjunctionIterator(const ConjunctionIterator&) = delete;
  ConjunctionIterator& operator=(const ConjunctionIterator&) = delete;

  bool AtEnd() const { return at_end_; }
  DocId doc() const { return current_doc_; }

  /// True when iteration stopped because the guard tripped rather than
  /// because the conjunction was exhausted.
  bool aborted() const { return aborted_; }

  /// tf of the current doc in the i-th list (in the caller's list order).
  uint32_t tf(size_t i) const { return iters_[order_inverse_[i]].tf(); }

  size_t num_lists() const { return iters_.size(); }

  /// Human-readable summary of the cost-model advance strategies picked at
  /// Init (ChooseIntersectStrategy per probe cursor against the driver),
  /// e.g. "gallop*2+merge*1" or "simdgallop*1+wideprobe*1". Trace/telemetry
  /// helper, not a hot-path API.
  std::string StrategyMix() const;

  /// Advances to the next document present in every list.
  void Next();

 private:
  void Init(std::vector<PostingCursor> cursors);
  void FindNextMatch();
  void AdvanceTo(size_t k, DocId target);
  void ReleaseGrant();

  std::vector<PostingCursor> iters_;   // sorted by list length
  std::vector<size_t> order_inverse_;  // caller index -> iters_ index
  // Per-cursor advance strategy (ChooseIntersectStrategy vs the driver):
  // linear MergeTo for kMerge, galloping SkipTo for every other pick (the
  // SIMD kernel strategies need decoded windows, which only the block
  // kernels have — here they just name how skewed the pair is).
  std::vector<IntersectStrategy> strategy_;
  ScanGuard* guard_ = nullptr;
  // Ticks left of the guard's current grant (UINT64_MAX with no guard).
  uint64_t granted_ = 0;
  DocId current_doc_ = kInvalidDocId;
  bool at_end_ = false;
  bool aborted_ = false;
  bool first_ = true;
};

/// Materializes the docids of the intersection of all lists.
std::vector<DocId> IntersectAll(std::span<const PostingList* const> lists,
                                CostCounters* cost = nullptr);

/// Returns |∩ lists| without materializing the result. The cursor form
/// runs PairwiseEligible conjunctions on the block-pairwise kernel and
/// the rest on a ConjunctionIterator; either charges `guard`.
uint64_t CountIntersection(std::span<const PostingList* const> lists,
                           CostCounters* cost = nullptr);
uint64_t CountIntersection(std::vector<PostingCursor> cursors,
                           ScanGuard* guard = nullptr);

/// Result of the combined "intersection with aggregation" operator (∩γ in
/// Figure 3): the context cardinality and the SUM over a per-document
/// parameter (document length) of the intersection.
struct AggregationResult {
  uint64_t count = 0;     // |D_P| : γ_count
  uint64_t sum_len = 0;   // len(D_P) : γ_sum over doc lengths
};

/// Computes γ_count and γ_sum(len) over the intersection of `lists`.
/// `doc_lengths[d]` is the length of document d. The aggregation scans every
/// element of the intersection (cost(γ(P)) = |∩ L_mi|), which is charged to
/// cost->aggregation_entries.
AggregationResult IntersectAndAggregate(
    std::span<const PostingList* const> lists,
    std::span<const uint32_t> doc_lengths, CostCounters* cost = nullptr,
    ScanGuard* guard = nullptr);

/// True when a conjunction over `cursors` runs on the block-pairwise
/// kernel (codec.h): exactly two valid compressed cursors. A guard does
/// not change the choice; the kernel charges it by the join tick rule.
bool PairwiseEligible(const std::vector<PostingCursor>& cursors);

/// Copies the intersection-relevant cost-counter deltas accumulated since
/// `before` onto `span` as attributes (entries_scanned, segments_touched,
/// skips_taken, bytes_touched, blocks_skipped). No-op when span is null.
void AttrIntersectionCostDelta(TraceSpan* span, const CostCounters& after,
                               const CostCounters& before);

}  // namespace csr

#endif  // CSR_INDEX_INTERSECTION_H_
