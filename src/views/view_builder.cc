#include "views/view_builder.h"

#include <unordered_map>

namespace csr {

std::vector<MaterializedView> ViewBuilder::BuildAll(
    std::span<const ViewDefinition> defs) const {
  std::vector<MaterializedView> views;
  views.reserve(defs.size());
  for (const ViewDefinition& def : defs) {
    views.emplace_back(def, options_, num_tracked_);
  }
  Route(views, /*first_doc=*/0, static_cast<DocId>(corpus_->docs.size()));
  return views;
}

std::vector<MaterializedView> ViewBuilder::BuildRange(
    std::span<const ViewDefinition> defs, DocId first, DocId end) const {
  std::vector<MaterializedView> views;
  views.reserve(defs.size());
  for (const ViewDefinition& def : defs) {
    views.emplace_back(def, options_, num_tracked_);
  }
  Route(views, first, end);
  return views;
}

void ViewBuilder::UpdateAll(std::vector<MaterializedView>& views,
                            DocId first_doc) const {
  Route(views, first_doc, static_cast<DocId>(corpus_->docs.size()));
}

void ViewBuilder::Route(std::vector<MaterializedView>& views, DocId first_doc,
                        DocId end_doc) const {
  // Inverted routing: predicate term -> (view index, bit position).
  std::unordered_map<TermId, std::vector<std::pair<uint32_t, uint32_t>>>
      routes;
  for (uint32_t v = 0; v < views.size(); ++v) {
    const TermIdSet& cols = views[v].def().keyword_columns;
    for (uint32_t bit = 0; bit < cols.size(); ++bit) {
      routes[cols[bit]].emplace_back(v, bit);
    }
  }

  // One pass over documents; per document, visit only the views that share
  // at least one keyword column with its annotations.
  std::vector<std::vector<uint32_t>> bits_of_view(views.size());
  std::vector<uint32_t> touched;
  for (size_t i = first_doc; i < end_doc; ++i) {
    const Document& doc = corpus_->docs[i];
    touched.clear();
    for (TermId m : doc.annotations) {
      auto it = routes.find(m);
      if (it == routes.end()) continue;
      for (const auto& [v, bit] : it->second) {
        if (bits_of_view[v].empty()) touched.push_back(v);
        bits_of_view[v].push_back(bit);
      }
    }
    if (touched.empty()) continue;
    auto tracked_terms = table_->TrackedOf(doc.id - table_base_);
    uint32_t len = table_->doc_length(doc.id - table_base_);
    for (uint32_t v : touched) {
      BitSignature sig(views[v].def().num_columns());
      for (uint32_t bit : bits_of_view[v]) sig.Set(bit);
      views[v].AddDocument(sig, len, tracked_terms, doc.year);
      bits_of_view[v].clear();
    }
  }
  for (MaterializedView& view : views) view.Compact();
}

MaterializedView BuildViewFromIndexes(const ViewDefinition& def,
                                      ViewParamOptions options,
                                      const TrackedKeywords& tracked,
                                      const InvertedIndex& content,
                                      const InvertedIndex& predicate,
                                      std::span<const uint16_t> years) {
  const uint32_t num_tracked = static_cast<uint32_t>(tracked.size());
  MaterializedView view(def, options, num_tracked);
  const uint32_t cols = def.num_columns();
  const uint64_t num_docs = content.num_docs();
  if (cols == 0 || cols > 64 || num_docs == 0) return view;

  // Pass 1: one 64-bit signature mask per local document, filled from the
  // predicate posting lists of the view's keyword columns.
  std::vector<uint64_t> masks(num_docs, 0);
  for (uint32_t bit = 0; bit < cols; ++bit) {
    TermId m = def.keyword_columns[bit];
    if (m >= predicate.num_terms()) continue;
    for (PostingCursor c = predicate.cursor(m); c.valid() && !c.AtEnd();
         c.Next()) {
      masks[c.doc()] |= 1ULL << bit;
    }
  }

  // Only documents in a non-empty partition contribute rows (the all-zero
  // partition is never stored); remap them densely.
  std::vector<uint32_t> slot_of_doc(num_docs, UINT32_MAX);
  std::vector<DocId> touched;
  for (uint64_t d = 0; d < num_docs; ++d) {
    if (masks[d] == 0) continue;
    slot_of_doc[d] = static_cast<uint32_t>(touched.size());
    touched.push_back(static_cast<DocId>(d));
  }
  if (touched.empty()) return view;

  // Pass 2: (slot, tf) parameter pairs per touched document from the
  // tracked keywords' content lists. Iterating slots in ascending order
  // appends each document's pairs sorted by slot, matching what a
  // DocParamTable row would hold.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> params(
      touched.size());
  for (uint32_t slot = 0; slot < num_tracked; ++slot) {
    TermId w = tracked.TermAt(slot);
    if (w >= content.num_terms()) continue;
    for (PostingCursor c = content.cursor(w); c.valid() && !c.AtEnd();
         c.Next()) {
      uint32_t t = slot_of_doc[c.doc()];
      if (t != UINT32_MAX) params[t].emplace_back(slot, c.tf());
    }
  }

  for (size_t t = 0; t < touched.size(); ++t) {
    DocId d = touched[t];
    BitSignature sig(cols);
    uint64_t mask = masks[d];
    while (mask != 0) {
      uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(mask));
      sig.Set(bit);
      mask &= mask - 1;
    }
    uint16_t year = d < years.size() ? years[d] : 0;
    view.AddDocument(sig, content.doc_length(d), params[t], year);
  }
  view.Compact();
  return view;
}

}  // namespace csr
