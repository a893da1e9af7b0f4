#include "index/posting_list.h"

#include <algorithm>

namespace csr {

void PostingList::FinishBuild() {
  if (finished_) return;
  skip_.clear();
  skip_max_tf_.clear();
  size_t num_segments = (postings_.size() + segment_size_ - 1) / segment_size_;
  skip_.reserve(num_segments);
  skip_max_tf_.reserve(num_segments);
  // Every tf equals max_tf_ exactly when they sum to size * max_tf_ (a
  // context set's tf = 1 postings): then no segment needs a max-tf scan.
  const bool uniform_tf =
      total_tf_ == static_cast<uint64_t>(postings_.size()) * max_tf_;
  for (size_t k = 0; k < num_segments; ++k) {
    size_t begin = k * segment_size_;
    size_t end = std::min(postings_.size(), (k + 1) * segment_size_);
    skip_.push_back(postings_[end - 1].doc);
    uint32_t seg_max = uniform_tf ? max_tf_ : 0;
    for (size_t i = uniform_tf ? end : begin; i < end; ++i) {
      seg_max = std::max(seg_max, postings_[i].tf);
    }
    skip_max_tf_.push_back(seg_max);
  }
  finished_ = true;
}

bool PostingList::SegmentBound(DocId target, size_t hint,
                               DocId* seg_last_doc,
                               uint32_t* seg_max_tf) const {
  size_t k = std::min(hint, skip_.size());
  if (k >= skip_.size()) return false;
  if (skip_[k] < target) {
    auto it = std::lower_bound(skip_.begin() + k + 1, skip_.end(), target);
    if (it == skip_.end()) return false;
    k = static_cast<size_t>(it - skip_.begin());
  }
  *seg_last_doc = skip_[k];
  *seg_max_tf = skip_max_tf_[k];
  return true;
}

void PostingList::Iterator::Next() {
  size_t old_segment = pos_ / list_->segment_size_;
  ++pos_;
  if (cost_ != nullptr) {
    cost_->entries_scanned++;
    if (!AtEnd() && pos_ / list_->segment_size_ != old_segment) {
      cost_->segments_touched++;
    }
  }
}

void PostingList::Iterator::SkipTo(DocId target) {
  const auto& postings = list_->postings_;
  const auto& skip = list_->skip_;
  const uint32_t m0 = list_->segment_size_;
  if (AtEnd()) return;
  if (postings[pos_].doc >= target) return;

  size_t segment = pos_ / m0;
  if (skip[segment] < target) {
    // Gallop over the skip table: exponential probes bracket the first
    // segment whose max docid >= target, then binary search the bracket.
    size_t bound = 1;
    while (segment + bound < skip.size() &&
           skip[segment + bound] < target) {
      bound <<= 1;
    }
    size_t lo = segment + bound / 2 + 1;
    size_t hi = std::min(segment + bound + 1, skip.size());
    auto it = std::lower_bound(skip.begin() + lo, skip.begin() + hi, target);
    if (cost_ != nullptr) cost_->skips_taken++;
    if (it == skip.begin() + hi && hi == skip.size()) {
      pos_ = postings.size();
      return;
    }
    pos_ = static_cast<size_t>(it - skip.begin()) * m0;
    if (cost_ != nullptr) cost_->segments_touched++;
    if (postings[pos_].doc >= target) {
      if (cost_ != nullptr) cost_->entries_scanned++;
      return;
    }
  }

  // Gallop + binary search within the segment; postings[pos_].doc < target
  // and the segment's max docid >= target guarantee a hit past pos_.
  size_t seg_end =
      std::min(postings.size(), (pos_ / m0 + 1) * static_cast<size_t>(m0));
  size_t bound = 1;
  uint64_t probes = 1;
  while (pos_ + bound < seg_end && postings[pos_ + bound].doc < target) {
    bound <<= 1;
    ++probes;
  }
  size_t lo = pos_ + bound / 2 + 1;
  size_t hi = std::min(pos_ + bound + 1, seg_end);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    ++probes;
    if (postings[mid].doc < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  pos_ = lo;
  if (cost_ != nullptr) cost_->entries_scanned += probes;
}

}  // namespace csr
