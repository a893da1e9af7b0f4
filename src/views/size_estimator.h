#ifndef CSR_VIEWS_SIZE_ESTIMATOR_H_
#define CSR_VIEWS_SIZE_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "corpus/generator.h"
#include "views/materialized_view.h"
#include "views/view_def.h"

namespace csr {

/// Estimates ViewSize(V_K) — the number of non-empty tuples — by mapping a
/// document sample onto the view's partitions and counting distinct
/// signatures (Section 4.3). Since distinct-count over a sample only grows
/// with more data, the estimate is a lower bound on the exact size; the
/// view-selection algorithms compensate by comparing against T_V with the
/// full sample.
///
/// Thread-safety: Estimate() and EstimateBytes() read only state FROZEN at
/// construction — the sampled documents' annotation sets are copied out of
/// the corpus up front, so concurrent appends (which grow corpus->docs and
/// can reallocate the vector out from under a reader) cannot race them.
/// The adaptive controller's background thread relies on this. Exact()
/// still walks the live corpus and keeps requiring exclusive access.
class ViewSizeEstimator {
 public:
  /// Draws a fixed document sample once and freezes its annotation sets;
  /// every Estimate call reuses them. sample_size >= |corpus| makes
  /// Estimate exact (over the corpus as of construction).
  ViewSizeEstimator(const Corpus* corpus, uint64_t seed,
                    uint32_t sample_size = 20000);

  /// Estimated number of non-empty (non-zero-signature) tuples of V_K.
  uint64_t Estimate(const ViewDefinition& def) const;

  /// Exact count over the full collection. Reads the live corpus;
  /// requires exclusive access (no concurrent appends).
  uint64_t Exact(const ViewDefinition& def) const;

  /// Modeled resident bytes of a COMPACTED view of `num_tuples` tuples
  /// with `keyword_columns` columns under `options` tracking `num_tracked`
  /// slots. Mirrors MaterializedView::MemoryBytes of the column store
  /// exactly: per tuple the two 8-byte aggregate columns, a 2-byte year
  /// bucket when the view has a time dimension and one 4-byte cell per
  /// tracked slot per enabled df/tc column, plus one row bitmap of
  /// ⌈num_tuples / 64⌉ words per keyword column. All arithmetic is 64-bit:
  /// with ~1k tracked slots one tuple already costs ~8 KiB, so a 32-bit
  /// product overflows past ~500k tuples. Cross-checked against actual
  /// Compact() bytes in the views test lane so the model cannot silently
  /// rot. Monotone in `num_tuples`.
  static uint64_t StoreBytes(uint64_t num_tuples, uint32_t keyword_columns,
                             const ViewParamOptions& options,
                             uint32_t num_tracked);

  /// Lower-bound resident-byte estimate: StoreBytes(Estimate(def)).
  /// The adaptive controller uses this only as a pre-admission gate; its
  /// budget is accounted in actual MemoryBytes at install time. The
  /// per-segment delta path stores one partial tuple set per segment, so
  /// callers sizing a segmented build should multiply by the expected
  /// duplication factor themselves (the controller skips that: a lower
  /// bound only needs to reject views that cannot possibly fit).
  uint64_t EstimateBytes(const ViewDefinition& def,
                         const ViewParamOptions& options,
                         uint32_t num_tracked) const;

  size_t sample_size() const { return sample_annotations_.size(); }

 private:
  uint64_t CountDistinct(const ViewDefinition& def,
                         const std::vector<DocId>& docs) const;
  uint64_t CountDistinctFrozen(const ViewDefinition& def) const;

  const Corpus* corpus_;
  // The sampled documents' annotation sets, copied at construction (see
  // the class comment). Tens of annotations per document, so the frozen
  // copy costs a few hundred KB at the default 20k sample.
  std::vector<std::vector<TermId>> sample_annotations_;
  std::vector<DocId> all_docs_;
};

}  // namespace csr

#endif  // CSR_VIEWS_SIZE_ESTIMATOR_H_
