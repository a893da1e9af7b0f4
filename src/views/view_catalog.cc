#include "views/view_catalog.h"

#include <algorithm>

namespace csr {

void ViewCatalog::Add(MaterializedView view) {
  view.Compact();
  uint32_t idx = static_cast<uint32_t>(views_.size());
  for (TermId m : view.def().keyword_columns) {
    by_term_[m].push_back(idx);
  }
  views_.push_back(std::move(view));
}

std::vector<MaterializedView> ViewCatalog::Release() {
  std::vector<MaterializedView> out = std::move(views_);
  views_.clear();
  by_term_.clear();
  return out;
}

const MaterializedView* ViewCatalog::FindBest(
    std::span<const TermId> context) const {
  int32_t idx = FindBestIndex(context);
  return idx < 0 ? nullptr : &views_[static_cast<size_t>(idx)];
}

int32_t ViewCatalog::FindBestIndex(std::span<const TermId> context) const {
  if (context.empty() || views_.empty()) return -1;

  // Candidates are views containing the rarest predicate of P.
  const std::vector<uint32_t>* candidates = nullptr;
  for (TermId m : context) {
    auto it = by_term_.find(m);
    if (it == by_term_.end()) return -1;  // some predicate in no view
    if (candidates == nullptr || it->second.size() < candidates->size()) {
      candidates = &it->second;
    }
  }

  int32_t best = -1;
  for (uint32_t idx : *candidates) {
    const MaterializedView& v = views_[idx];
    if (!v.def().Covers(context)) continue;
    if (best < 0 || v.NumTuples() < views_[static_cast<size_t>(best)]
                                        .NumTuples()) {
      best = static_cast<int32_t>(idx);
    }
  }
  return best;
}

const QuarantinedView* ViewCatalog::FindQuarantinedCovering(
    std::span<const TermId> context) const {
  for (const QuarantinedView& q : quarantined_) {
    if (std::includes(q.keyword_columns.begin(), q.keyword_columns.end(),
                      context.begin(), context.end())) {
      return &q;
    }
  }
  return nullptr;
}

uint64_t ViewCatalog::TotalStorageBytes() const {
  uint64_t total = 0;
  for (const auto& v : views_) total += v.StorageBytes();
  return total;
}

uint64_t ViewCatalog::TotalTuples() const {
  uint64_t total = 0;
  for (const auto& v : views_) total += v.NumTuples();
  return total;
}

}  // namespace csr
