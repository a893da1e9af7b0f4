#ifndef CSR_VIEWS_MATERIALIZED_VIEW_H_
#define CSR_VIEWS_MATERIALIZED_VIEW_H_

#include <cstddef>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/cost_model.h"
#include "util/types.h"
#include "views/signature.h"
#include "views/view_def.h"
#include "views/wide_table.h"

namespace csr {

/// Which parameter columns views carry. df columns (document count per
/// tracked keyword) are required by TF-IDF/BM25; tc columns (term count per
/// tracked keyword) additionally enable language-model ranking.
struct ViewParamOptions {
  bool track_df = true;
  bool track_tc = false;

  /// Section 7 time extension: when non-zero, the GROUP BY additionally
  /// partitions documents by floor(year / year_bucket_size), so year-range
  /// restrictions aligned to bucket boundaries are answerable from the
  /// view. 0 disables the time dimension.
  uint16_t year_bucket_size = 0;
};

/// A materialized view V_K (Section 4.1): GROUP BY K over the wide sparse
/// table, keeping one row per *non-empty* partition (Section 4.3). Each row
/// aggregates COUNT(*), SUM(len(d)), and per tracked keyword w the partial
/// df (and optionally tc).
///
/// A view has two forms. The build form is a hash map keyed by (signature,
/// year bucket), which AddDocument upserts into. The serving
/// form, made by Compact(), is a column store (DESIGN.md §19): rows sorted
/// by (bucket, signature), one row bitmap per keyword column, and the
/// aggregate and parameter columns stored column-major. ComputeStats reads
/// only the serving form. S_c(D_P) ANDs the bitmaps of P's columns over the
/// rows of the requested bucket interval and folds the set bits' columns:
/// Theorem 4.2's full scan at O(ViewSize / 64 + matches). Every producer of
/// a view (ViewBuilder, BuildViewFromIndexes, MergeFrom, snapshot load,
/// ViewCatalog::Add) hands it out compacted.
class MaterializedView {
 public:
  MaterializedView(ViewDefinition def, ViewParamOptions options,
                   uint32_t num_tracked)
      : def_(std::move(def)), options_(options), num_tracked_(num_tracked) {}

  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;
  MaterializedView(MaterializedView&&) = default;
  MaterializedView& operator=(MaterializedView&&) = default;

  const ViewDefinition& def() const { return def_; }
  const ViewParamOptions& options() const { return options_; }

  /// Folds one document into its partition (the build form; a compacted
  /// view is un-compacted first). `tracked_terms` is the document's
  /// (slot, tf) vector from the DocParamTable; `sig` must have been built
  /// against this view's definition. `year` is ignored unless the view has
  /// a time dimension.
  void AddDocument(const BitSignature& sig, uint32_t doc_length,
                   std::span<const std::pair<uint32_t, uint32_t>> tracked_terms,
                   uint16_t year = 0);

  /// Result of a statistics query against the view, aligned with the query
  /// keyword order. covered[i] is false when keyword i is not a tracked
  /// parameter column, in which case df[i]/tc[i] are meaningless and the
  /// caller must compute them at query time (Section 6.2 "Storage usage").
  struct StatsResult {
    uint64_t cardinality = 0;
    uint64_t total_length = 0;
    std::vector<uint64_t> df;
    std::vector<uint64_t> tc;
    std::vector<bool> covered;

    /// False when a year-range restriction could not be answered from
    /// this view (no time dimension, or range not aligned to bucket
    /// boundaries); the caller must fall back to the straightforward plan.
    bool range_answerable = true;
  };

  /// Computes S_c(D_P) from the column store; the view must be compacted.
  /// `context` must be sorted and satisfy Covers(context); violations
  /// return a zeroed result with all covered[i] = false. An active `range`
  /// is answered exactly iff the view has a time dimension and the range
  /// aligns to bucket boundaries. Charges every tuple of the view to
  /// cost->view_tuples_scanned, whatever the bitmaps skip.
  StatsResult ComputeStats(std::span<const TermId> context,
                           std::span<const TermId> keywords,
                           const TrackedKeywords& tracked,
                           CostCounters* cost = nullptr,
                           YearRange range = {}) const;

  /// True if an active year range aligns to this view's buckets (an
  /// inactive range is always answerable).
  bool RangeAnswerable(YearRange range) const;

  /// Number of non-empty tuples (the paper's ViewSize).
  size_t NumTuples() const {
    return compacted_ ? store_.rows : rows_.size();
  }

  /// Deep copy. MaterializedView is move-only (accidental copies of a
  /// multi-MB row store are bugs); segment flattening needs an explicit
  /// one to fold deltas into a fresh base catalog without mutating the
  /// published snapshot.
  MaterializedView Clone() const;

  /// Folds another (compacted) view's rows into this one (tuple-wise sums
  /// of count, sum_len, and the df/tc parameter columns) by one linear
  /// merge of the two column stores, both sorted by (bucket, signature),
  /// into a new store; this view is compacted first. Both views must share the same
  /// definition, options, and tracked-keyword table; this is the physical
  /// merge of a per-segment delta into its base view, and because every
  /// aggregate is an integer sum it reproduces exactly what a scratch build
  /// over the union of documents would have produced.
  void MergeFrom(const MaterializedView& other);

  /// Converts the build form into the serving column store. Idempotent; a
  /// new (empty) view starts compacted.
  void Compact();
  bool compacted() const { return compacted_; }

  /// Actual resident bytes of the live form. Compacted, the store's exact
  /// allocation: per tuple 16 bytes of count/sum_len, 2 of year bucket when
  /// the view has a time dimension and 4 per tracked slot per df/tc
  /// column, plus ⌈ViewSize / 64⌉ words per keyword column
  /// (ViewSizeEstimator::StoreBytes models it). Uncompacted, an estimate
  /// including per-row container overhead.
  uint64_t MemoryBytes() const;

  /// Modeled on-disk storage: per tuple, the packed signature key plus
  /// 8-byte count/sum columns and 4-byte df/tc columns.
  uint64_t StorageBytes() const;

  /// Number of parameter columns (count + len + df/tc columns), matching
  /// the paper's "912 parameter columns" accounting.
  uint32_t NumParameterColumns() const {
    uint32_t cols = 2;
    if (options_.track_df) cols += num_tracked_;
    if (options_.track_tc) cols += num_tracked_;
    return cols;
  }

 private:
  friend class ViewSerializer;  // persistence (storage/snapshot.cc)
  friend struct MaterializedViewTestPeer;  // field-level checks in tests

  struct Row {
    uint64_t count = 0;
    uint64_t sum_len = 0;
    std::vector<uint32_t> df;  // per tracked slot; empty unless track_df
    std::vector<uint32_t> tc;  // per tracked slot; empty unless track_tc
  };

  /// Group-by key: the keyword-column signature plus (when the view has a
  /// time dimension) the year bucket.
  struct TupleKey {
    BitSignature sig;
    uint16_t bucket = 0;

    bool operator==(const TupleKey& o) const {
      return bucket == o.bucket && sig == o.sig;
    }
  };
  struct TupleKeyHash {
    size_t operator()(const TupleKey& k) const {
      return static_cast<size_t>(HashCombine(k.sig.Hash(), k.bucket));
    }
  };

  /// The serving form: a column store over rows sorted by (bucket,
  /// signature). Every vector is allocated at its exact size.
  struct ColumnStore {
    size_t rows = 0;
    /// Words per row bitmap: ⌈rows / 64⌉.
    size_t words = 0;
    /// Keyword column c's row bitmap at [c * words, (c + 1) * words): bit
    /// r is set iff row r's signature has column c.
    std::vector<uint64_t> bitmaps;
    /// Per row, ascending; empty unless the view has a time dimension.
    std::vector<uint16_t> buckets;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> sum_lens;
    /// Column-major: slot s of row r at [s * rows + r]. Empty unless
    /// track_df / track_tc.
    std::vector<uint32_t> df;
    std::vector<uint32_t> tc;
  };

  /// Row r's signature words at [r * w, (r + 1) * w), w = ⌈columns / 64⌉,
  /// gathered from the column bitmaps. Compacted views only.
  std::vector<uint64_t> RowSignatures() const;

  /// Calls fn(key, row) for each row of the column store, in store order,
  /// with the build form's key and row rebuilt from the bitmaps and
  /// columns. Compacted views only.
  void ForEachRow(const std::function<void(TupleKey, Row)>& fn) const;

  /// Rebuilds rows_ from store_ (upserts need the keyed form).
  void Uncompact();

  ViewDefinition def_;
  ViewParamOptions options_;
  uint32_t num_tracked_;
  std::unordered_map<TupleKey, Row, TupleKeyHash> rows_;
  bool compacted_ = true;
  ColumnStore store_;
};

}  // namespace csr

#endif  // CSR_VIEWS_MATERIALIZED_VIEW_H_
