#ifndef CSR_SELECTION_VIEW_SELECTION_H_
#define CSR_SELECTION_VIEW_SELECTION_H_

#include <cstdint>
#include <vector>

#include "graph/decompose.h"
#include "index/inverted_index.h"
#include "mining/transactions.h"
#include "util/types.h"
#include "views/view_def.h"

namespace csr {

/// Problem Statement 5.1: given T_C (context-size threshold) and T_V
/// (view-size threshold), select views such that every context with
/// ContextSize >= T_C is covered by some view of size <= T_V.
struct SelectionThresholds {
  /// T_C, in absolute documents.
  uint64_t context_threshold = 1000;

  /// T_V, in view tuples.
  uint64_t view_size_threshold = 4096;
};

/// A SupportFn backed by the conjunction engine over the predicate lists
/// — ContextSize(P) = |∩ L_mi| computed the cheap way.
SupportFn MakeIndexSupportFn(const InvertedIndex& predicate_index);

/// Wraps a ViewSizeFn with memoization. Algorithm 1 probes the same
/// keyword sets repeatedly (every inner-loop pass re-estimates the current
/// view and each candidate union); sampling estimates are deterministic,
/// so caching them is free accuracy-wise and removes the quadratic
/// re-estimation cost.
ViewSizeFn MemoizeViewSize(ViewSizeFn fn);

/// Outcome shared by the selectors.
struct SelectionOutcome {
  std::vector<ViewDefinition> views;

  /// Input keyword combinations (after maximal filtering) that exceeded
  /// T_V on their own; they are still emitted as views but flagged here,
  /// since the paper assumes mining's size cap prevents this.
  uint32_t oversized_combinations = 0;
};

/// Algorithm 1 (data-mining-based view selection): given the frequent
/// keyword combinations, drop non-maximal ones, then greedily pack
/// combinations into views — each new view seeded with the largest
/// remaining combination and extended by the maximal-overlap combination
/// while the (estimated) view size stays under T_V.
SelectionOutcome SelectViewsMiningBased(
    std::vector<FrequentItemset> combinations, const ViewSizeFn& view_size,
    uint64_t view_size_threshold);

}  // namespace csr

#endif  // CSR_SELECTION_VIEW_SELECTION_H_
