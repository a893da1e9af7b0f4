#ifndef CSR_VIEWS_VIEW_BUILDER_H_
#define CSR_VIEWS_VIEW_BUILDER_H_

#include <span>
#include <vector>

#include "corpus/generator.h"
#include "views/materialized_view.h"
#include "views/wide_table.h"

namespace csr {

/// Materializes a batch of views in a single pass over the document
/// collection (the GROUP BY of Section 4.1 for every view at once). Every
/// view it returns is compacted (ready to serve).
///
/// Views do not store the all-zero partition (documents containing none of
/// K): a statistics query for a non-empty context P never aggregates it,
/// and skipping it keeps the builder pass O(Σ_d |annotations(d) ∩ any K|)
/// instead of O(|D| · #views). ViewSize therefore counts partitions with at
/// least one keyword column set; the size estimator uses the same
/// convention.
class ViewBuilder {
 public:
  /// All pointers must outlive the builder. `table_base` is the global
  /// docid backing the table's local row 0: a per-segment DocParamTable is
  /// built from the segment's own content index, so its rows are local
  /// while corpus docids stay global (segment builders pass the segment
  /// base; whole-corpus builders leave it 0).
  ViewBuilder(const Corpus* corpus, const DocParamTable* table,
              ViewParamOptions options, uint32_t num_tracked,
              DocId table_base = 0)
      : corpus_(corpus),
        table_(table),
        options_(options),
        num_tracked_(num_tracked),
        table_base_(table_base) {}

  /// Builds one materialized view per definition.
  std::vector<MaterializedView> BuildAll(
      std::span<const ViewDefinition> defs) const;

  /// Builds one view per definition over the corpus slice [first, end) —
  /// the per-segment view-delta pass. Aggregates cover exactly the slice's
  /// documents, so folding the deltas of a partition of the corpus
  /// reproduces BuildAll bit-for-bit (every column is an integer sum).
  std::vector<MaterializedView> BuildRange(std::span<const ViewDefinition> defs,
                                           DocId first, DocId end) const;

  /// Incremental maintenance: folds documents with id >= first_doc into
  /// the existing views (same routing as BuildAll, restricted to the new
  /// suffix of the corpus). Views must have been built against the same
  /// tracked-keyword table.
  void UpdateAll(std::vector<MaterializedView>& views, DocId first_doc) const;

 private:
  void Route(std::vector<MaterializedView>& views, DocId first_doc,
             DocId end_doc) const;

  const Corpus* corpus_;
  const DocParamTable* table_;
  ViewParamOptions options_;
  uint32_t num_tracked_;
  DocId table_base_;
};

/// Builds one view directly from a segment's indexes, touching NO corpus
/// state: keyword-column signatures come from the predicate index's
/// posting lists, parameter columns from the tracked keywords' content
/// lists, and lengths from the index-side doc-length array. `years` is the
/// segment's local year array (may be empty when the view has no time
/// dimension). Works on compressed and uncompressed indexes alike
/// (everything goes through PostingCursor).
///
/// This is the builder the adaptive controller's background
/// materialization uses: ViewBuilder::Route reads corpus_->docs, which
/// concurrent appends grow (a std::vector reallocation race), while an
/// index inside a published LiveSet snapshot is immutable. Every aggregate
/// is the same integer sum, so the result is identical to a corpus-based
/// BuildRange over the same documents.
///
/// `def` must have at most 64 keyword columns (the adaptive candidate cap
/// enforces this); wider definitions return an empty view. The view is
/// returned compacted.
MaterializedView BuildViewFromIndexes(const ViewDefinition& def,
                                      ViewParamOptions options,
                                      const TrackedKeywords& tracked,
                                      const InvertedIndex& content,
                                      const InvertedIndex& predicate,
                                      std::span<const uint16_t> years);

}  // namespace csr

#endif  // CSR_VIEWS_VIEW_BUILDER_H_
