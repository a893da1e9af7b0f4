// A brute-force answer to a ContextQuery, computed from the Corpus
// documents alone: it never touches an index, a view, a cache or a join,
// so a fault shared by every engine path still shows against it.

#ifndef CSR_TESTS_ORACLE_H_
#define CSR_TESTS_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "corpus/document.h"
#include "engine/query.h"
#include "ranking/ranking_function.h"
#include "stats/statistics.h"

namespace csr {

struct OracleAnswer {
  std::vector<DocId> matches;  // the full conjunction, in docid order
  uint64_t result_count = 0;   // matches scored (all, or the prefix asked)
  CollectionStats stats;       // what the ranking scored with
  std::vector<SearchResultEntry> top_docs;
};

/// Answers `q` over documents [0, num_docs) under `mode`, scoring with
/// `ranking` and keeping the best `top_k` (score desc, docid asc on ties).
/// With `prefix`, only the first `prefix` matches in docid order are
/// scored: the answer a retrieval that stopped early must return.
inline OracleAnswer OracleSearch(const std::vector<Document>& docs,
                                 size_t num_docs, const ContextQuery& q,
                                 EvaluationMode mode,
                                 const RankingFunction& ranking, size_t top_k,
                                 size_t prefix = SIZE_MAX) {
  const QueryStats qs = QueryStats::FromKeywords(q.keywords);
  const size_t k = qs.keywords.size();
  auto in_context = [&](const Document& d) {
    for (TermId m : q.context) {
      if (!std::binary_search(d.annotations.begin(), d.annotations.end(),
                              m)) {
        return false;
      }
    }
    return true;
  };
  auto tfs_of = [&](const Document& d) {
    std::vector<uint32_t> tf(k, 0);
    for (TermId t : d.ContentTokens()) {
      for (size_t i = 0; i < k; ++i) tf[i] += t == qs.keywords[i];
    }
    return tf;
  };
  OracleAnswer a;
  a.stats.df.assign(k, 0);
  a.stats.tc.assign(k, 0);
  for (DocId d = 0; d < num_docs; ++d) {
    const Document& doc = docs[d];
    const bool ctx = in_context(doc) && q.years.Contains(doc.year);
    // Conventional ranking scores with the whole collection (Formula 1);
    // context-sensitive ranking with D_P (Formula 2).
    if (mode == EvaluationMode::kConventional || ctx) {
      const std::vector<uint32_t> tf = tfs_of(doc);
      a.stats.cardinality++;
      a.stats.total_length += doc.Length();
      for (size_t i = 0; i < k; ++i) {
        a.stats.df[i] += tf[i] > 0;
        a.stats.tc[i] += tf[i];
      }
    }
    if (!ctx) continue;
    const std::vector<uint32_t> tf = tfs_of(doc);
    if (std::all_of(tf.begin(), tf.end(), [](uint32_t t) { return t > 0; })) {
      a.matches.push_back(d);
    }
  }
  a.result_count = std::min(prefix, a.matches.size());
  for (size_t i = 0; i < a.result_count; ++i) {
    const Document& doc = docs[a.matches[i]];
    DocStats ds{a.matches[i], tfs_of(doc), doc.Length()};
    a.top_docs.push_back({ds.doc, ranking.Score(qs, ds, a.stats)});
  }
  std::sort(a.top_docs.begin(), a.top_docs.end(),
            [](const SearchResultEntry& x, const SearchResultEntry& y) {
              return x.score != y.score ? x.score > y.score : x.doc < y.doc;
            });
  if (a.top_docs.size() > top_k) a.top_docs.resize(top_k);
  return a;
}

}  // namespace csr

#endif  // CSR_TESTS_ORACLE_H_
