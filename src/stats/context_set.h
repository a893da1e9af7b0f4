#ifndef CSR_STATS_CONTEXT_SET_H_
#define CSR_STATS_CONTEXT_SET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/cost_model.h"
#include "index/inverted_index.h"
#include "index/posting_cursor.h"
#include "index/scan_guard.h"
#include "util/types.h"

namespace csr {

/// df(w, D_P) and tc(w, D_P) of one keyword over one context.
struct KeywordCounts {
  uint64_t df = 0;
  uint64_t tc = 0;
};

/// The document set D_P = L_m1 ∩ ... ∩ L_mc of one context over one index
/// part, restricted to a year range when one is active, materialized by
/// one chain of joins (Build). Every statistic of the straightforward plan
/// (Figure 3) derives from it: |D_P| and len(D_P) are kept at build time,
/// and each keyword's df/tc is one 2-way join L_w ⋈ D_P instead of an
/// (m+1)-way join over the predicate lists. Retrieval then joins the
/// keyword lists with the set instead of re-joining the m predicate lists.
///
/// The members are stored as a sorted docid array, 4 bytes each: the set
/// joins in the conjunction engine (index/intersection.h) as a docid run
/// whose tfs read 1, and its windows feed the SIMD kernels with no copy.
/// A complete set is immutable,
/// so one set can serve many queries at once: the engine's cross-query
/// ContextSetCache (engine/context_set_cache.h) shares it by pointer, and
/// each query's PreparedSearch holds it for as long as the query runs.
class ContextSet {
 public:
  /// An empty, complete set (an unsatisfiable context).
  ContextSet() = default;

  /// Builds D_P over one part with the conjunction engine (a Conjunction
  /// over the predicate lists: a walk of one list; for m >= 2, the
  /// pairwise join of the two shortest, then a semijoin with each further
  /// list in ascending length), guarded or not. `guard` ticks by the
  /// engine's rule (index/intersection.h), so every representation
  /// charges the same ticks. γ_count and
  /// γ_sum(len) are taken on the way, and each member is charged to
  /// cost->aggregation_entries. `context` must be sorted; an empty context
  /// or a missing predicate list yields an empty set. `years[d]` gives
  /// document d's year when `range` is active. When the guard trips
  /// mid-build, or was tripped before it, the set holds only a prefix of
  /// D_P and complete() is false: such a set must not be probed.
  static ContextSet Build(const InvertedIndex& content_index,
                          const InvertedIndex& predicate_index,
                          std::span<const TermId> context,
                          CostCounters* cost = nullptr,
                          std::span<const uint16_t> years = {},
                          YearRange range = {}, ScanGuard* guard = nullptr);

  /// |D_P|.
  size_t Size() const { return docs_.size(); }
  /// len(D_P): the summed length of the member documents.
  uint64_t total_length() const { return total_length_; }
  /// False when a guard tripped during Build.
  bool complete() const { return complete_; }
  /// Bytes allocated for the member array and this object, what a cache
  /// charges against its budget: 4 per member. Build trims the array to
  /// its members, so no reservation beyond them stays allocated
  /// (DESIGN.md §18).
  uint64_t MemoryBytes() const {
    return sizeof(*this) + docs_.capacity() * sizeof(DocId);
  }

  /// Membership by binary search over the sorted docids.
  bool Contains(DocId d) const;

  /// The members, ascending.
  const std::vector<DocId>& docs() const { return docs_; }
  /// The members as a docid run for the conjunction engine, charged to
  /// `cost`.
  PostingRef ref(CostCounters* cost) const {
    return PostingRef{nullptr, nullptr, cost, docs_};
  }

  /// df and (when `with_tc`) tc of the keyword list `keyword` within the
  /// set, by one 2-way join charged to the keyword's cost counters: a
  /// block walk over a compressed list (JoinRunWithList), a two-list
  /// Conjunction (a search join) over a plain one. Either way `guard`
  /// ticks by the join tick rule (index/intersection.h); after a trip the
  /// counts are partial. Only blocks the join probes are decoded. When
  /// `strategy` is non-null it receives which side drove (tracing only).
  KeywordCounts IntersectWith(PostingRef keyword, bool with_tc,
                              ScanGuard* guard = nullptr,
                              std::string* strategy = nullptr) const;

 private:
  std::vector<DocId> docs_;
  uint64_t total_length_ = 0;
  bool complete_ = true;
};

}  // namespace csr

#endif  // CSR_STATS_CONTEXT_SET_H_
