#ifndef CSR_STATS_STATISTICS_H_
#define CSR_STATS_STATISTICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace csr {

/// Query-specific statistics (Table 1): derived purely from the keyword
/// query. Keywords are deduplicated; multiplicity becomes tq(w, Q).
struct QueryStats {
  std::vector<TermId> keywords;  // unique, in first-occurrence order
  std::vector<uint32_t> tq;      // aligned with `keywords`
  uint32_t length = 0;           // len(Q): total keywords incl. repeats

  uint32_t unique_terms() const {
    return static_cast<uint32_t>(keywords.size());
  }

  /// Builds from a raw (possibly repeating) keyword sequence.
  static QueryStats FromKeywords(std::span<const TermId> raw);
};

/// Document-specific statistics for one (document, query) pair: the term
/// frequencies of the query keywords in the document plus document length.
struct DocStats {
  DocId doc = kInvalidDocId;
  std::vector<uint32_t> tf;  // aligned with QueryStats::keywords
  uint32_t length = 0;       // len(d)
};

/// Collection-specific statistics S_c(D_P) for a context P (Table 1),
/// aligned with a particular query's keywords. For conventional ranking
/// the "context" is the entire collection D.
struct CollectionStats {
  uint64_t cardinality = 0;   // |D_P|
  uint64_t total_length = 0;  // len(D_P)
  std::vector<uint64_t> df;   // df(w_i, D_P), aligned with query keywords
  std::vector<uint64_t> tc;   // tc(w_i, D_P); may be empty if not computed

  double avgdl() const {
    return cardinality == 0
               ? 0.0
               : static_cast<double>(total_length) /
                     static_cast<double>(cardinality);
  }

  /// Adds the statistics of a disjoint document set aligned with the same
  /// keywords. Every field is an integer sum, so folding the parts of a
  /// partitioned collection reproduces the whole bit for bit. tc is summed
  /// only where both sides carry it (it is empty when not computed).
  void Add(const CollectionStats& other) {
    cardinality += other.cardinality;
    total_length += other.total_length;
    for (size_t i = 0; i < std::min(df.size(), other.df.size()); ++i) {
      df[i] += other.df[i];
    }
    for (size_t i = 0; i < std::min(tc.size(), other.tc.size()); ++i) {
      tc[i] += other.tc[i];
    }
  }
};

}  // namespace csr

#endif  // CSR_STATS_STATISTICS_H_
