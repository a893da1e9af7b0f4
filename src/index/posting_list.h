#ifndef CSR_INDEX_POSTING_LIST_H_
#define CSR_INDEX_POSTING_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/cost_model.h"
#include "util/types.h"

namespace csr {

/// One inverted-list entry: <docid, tf> (Section 3.2.1). Posting lists are
/// sorted by docid.
struct Posting {
  DocId doc;
  uint32_t tf;

  bool operator==(const Posting& o) const {
    return doc == o.doc && tf == o.tf;
  }
};

/// A sorted posting list with skip pointers. The list is partitioned into
/// segments of `M0` entries; `skip_[k]` records the largest docid in segment
/// k, so an iterator can jump over whole segments whose range cannot contain
/// the probe docid — exactly the structure the paper's cost model assumes.
class PostingList {
 public:
  /// Default segment size. The paper does not fix M0; 128 is the common
  /// choice in block-based indexes (Lucene uses 128-entry blocks).
  static constexpr uint32_t kDefaultSegmentSize = 128;

  explicit PostingList(uint32_t segment_size = kDefaultSegmentSize)
      : segment_size_(segment_size == 0 ? kDefaultSegmentSize : segment_size) {
  }

  PostingList(const PostingList&) = default;
  PostingList& operator=(const PostingList&) = default;
  PostingList(PostingList&&) = default;
  PostingList& operator=(PostingList&&) = default;

  /// Appends a posting. docids must strictly increase; violations are
  /// ignored in release builds and asserted in debug builds.
  void Append(DocId doc, uint32_t tf) {
    assert(postings_.empty() || postings_.back().doc < doc);
    postings_.push_back(Posting{doc, tf});
    total_tf_ += tf;
    if (tf > max_tf_) max_tf_ = tf;
    finished_ = false;
  }

  /// Reserves room for `n` postings, so a caller that knows an upper bound
  /// on the list's length appends without reallocating.
  void Reserve(size_t n) { postings_.reserve(n); }

  /// Releases whatever a Reserve left unused (one copy of the postings),
  /// so AllocatedBytes equals MemoryBytes.
  void ShrinkToFit() {
    postings_.shrink_to_fit();
    skip_.shrink_to_fit();
    skip_max_tf_.shrink_to_fit();
  }

  /// Finalizes the skip structure. Must be called after the last Append and
  /// before iteration. Idempotent.
  void FinishBuild();

  size_t size() const { return postings_.size(); }
  bool empty() const { return postings_.empty(); }
  uint32_t segment_size() const { return segment_size_; }
  const Posting& at(size_t i) const { return postings_[i]; }
  std::span<const Posting> postings() const { return postings_; }
  uint64_t total_tf() const { return total_tf_; }

  /// Largest tf in the list; feeds WAND score upper bounds.
  uint32_t max_tf() const { return max_tf_; }

  /// Approximate in-memory footprint in bytes (postings + skip tables).
  uint64_t MemoryBytes() const {
    return postings_.size() * sizeof(Posting) +
           skip_.size() * sizeof(DocId) +
           skip_max_tf_.size() * sizeof(uint32_t);
  }

  /// Bytes actually allocated (capacities, so a Reserve beyond the final
  /// size counts).
  uint64_t AllocatedBytes() const {
    return postings_.capacity() * sizeof(Posting) +
           skip_.capacity() * sizeof(DocId) +
           skip_max_tf_.capacity() * sizeof(uint32_t);
  }

  /// Block-max probe mirroring CompressedPostingList::BlockBound: finds
  /// the segment holding the first posting with docid >= target (searching
  /// forward from segment `hint`) and reports its last docid and max tf.
  /// Returns false when every remaining posting is < target.
  bool SegmentBound(DocId target, size_t hint, DocId* seg_last_doc,
                    uint32_t* seg_max_tf) const;

  /// Forward iterator with skip support. Lifetime: must not outlive the
  /// list; the list must not be mutated during iteration.
  class Iterator {
   public:
    Iterator(const PostingList* list, CostCounters* cost)
        : list_(list), cost_(cost) {
      if (cost_ != nullptr && !list_->empty()) cost_->segments_touched++;
    }

    bool AtEnd() const { return pos_ >= list_->postings_.size(); }
    DocId doc() const { return list_->postings_[pos_].doc; }
    uint32_t tf() const { return list_->postings_[pos_].tf; }
    size_t position() const { return pos_; }
    size_t segment() const { return pos_ / list_->segment_size_; }

    /// Moves to the next posting.
    void Next();

    /// Advances to the first posting with docid >= target: a galloping
    /// (exponential-probe) search over the skip table bounds the segment,
    /// then a gallop + binary search inside it finds the posting — probes
    /// are charged to entries_scanned, so the counters keep modeling work
    /// actually done.
    void SkipTo(DocId target);

    /// Advances to the first posting with docid >= target by linear
    /// stepping — the merge strategy for comparably-sized lists where the
    /// expected gap is O(1) postings (see ChooseIntersectStrategy). Steps
    /// are charged to entries_scanned just like SkipTo's probes.
    void MergeTo(DocId target) {
      const auto& ps = list_->postings_;
      while (pos_ < ps.size() && ps[pos_].doc < target) {
        ++pos_;
        if (cost_ != nullptr) cost_->entries_scanned++;
      }
    }

   private:
    const PostingList* list_;
    CostCounters* cost_;
    size_t pos_ = 0;
  };

  Iterator MakeIterator(CostCounters* cost = nullptr) const {
    return Iterator(this, cost);
  }

 private:
  friend class Iterator;

  uint32_t segment_size_;
  std::vector<Posting> postings_;
  std::vector<DocId> skip_;  // skip_[k] = max docid in segment k
  std::vector<uint32_t> skip_max_tf_;  // max tf in segment k (block-max)
  uint64_t total_tf_ = 0;
  uint32_t max_tf_ = 0;
  bool finished_ = false;
};

}  // namespace csr

#endif  // CSR_INDEX_POSTING_LIST_H_
