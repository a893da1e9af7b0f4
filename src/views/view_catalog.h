#ifndef CSR_VIEWS_VIEW_CATALOG_H_
#define CSR_VIEWS_VIEW_CATALOG_H_

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "views/materialized_view.h"

namespace csr {

/// Record of a materialized view dropped at load time because its persisted
/// bytes were corrupt (or a decode fault was injected). The keyword columns
/// come from the snapshot's frame directory, so they are known even when
/// the view body itself is unreadable; query-time fallbacks use them to
/// explain why a context that *should* have been view-answerable degraded
/// to the straightforward plan.
struct QuarantinedView {
  TermIdSet keyword_columns;
  std::string reason;
};

/// The set of materialized views available at query time, with a matcher
/// that finds, for a context specification P, a usable view (P ⊆ K). When
/// several views are usable the smallest one (fewest tuples) is picked, as
/// in Section 6.3.
class ViewCatalog {
 public:
  ViewCatalog() = default;

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;
  ViewCatalog(ViewCatalog&&) = default;
  ViewCatalog& operator=(ViewCatalog&&) = default;

  /// Adds `view`, compacting it first: a catalog serves only column
  /// stores.
  void Add(MaterializedView view);

  /// Removes and returns all views (for incremental maintenance: update
  /// the rows, then Add them back). The catalog is left empty.
  std::vector<MaterializedView> Release();

  /// Smallest usable view for the sorted context P, or nullptr when no
  /// view covers P (the query then falls back to the straightforward
  /// plan).
  const MaterializedView* FindBest(std::span<const TermId> context) const;

  /// Index of the view FindBest would return, or -1. Per-segment view
  /// deltas are stored in catalog insertion order, so the index picked
  /// against the base catalog addresses the matching delta in every
  /// segment.
  int32_t FindBestIndex(std::span<const TermId> context) const;

  size_t size() const { return views_.size(); }
  const MaterializedView& view(size_t i) const { return views_[i]; }

  /// Records a view dropped during snapshot load. Quarantined views never
  /// match queries; they exist so degradation can be attributed.
  void RecordQuarantine(QuarantinedView q) {
    quarantined_.push_back(std::move(q));
  }
  const std::vector<QuarantinedView>& quarantined() const {
    return quarantined_;
  }

  /// A quarantined view that would have covered `context` (sorted), or
  /// nullptr. Used to mark query results degraded when the view they would
  /// have used was dropped at load time.
  const QuarantinedView* FindQuarantinedCovering(
      std::span<const TermId> context) const;

  uint64_t TotalStorageBytes() const;
  uint64_t TotalTuples() const;

 private:
  std::vector<MaterializedView> views_;
  std::vector<QuarantinedView> quarantined_;
  // Predicate term -> indices of views whose K contains it.
  std::unordered_map<TermId, std::vector<uint32_t>> by_term_;
};

}  // namespace csr

#endif  // CSR_VIEWS_VIEW_CATALOG_H_
