#ifndef CSR_INDEX_POSTING_CURSOR_H_
#define CSR_INDEX_POSTING_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "index/codec.h"
#include "index/cost_model.h"
#include "index/posting_list.h"
#include "util/types.h"

namespace csr {

/// A posting list in one of its representations — uncompressed
/// PostingList, block-compressed CompressedPostingList, or a docid run
/// whose tfs all read 1 (a materialized context set) — with the cost
/// counters a scan of it charges: what the conjunction engine
/// (intersection.h) joins. It holds no scan state, so making one decodes
/// nothing. size() is 0 for a missing term.
struct PostingRef {
  const PostingList* plain = nullptr;
  const CompressedPostingList* packed = nullptr;
  CostCounters* cost = nullptr;
  /// Used when plain and packed are both null: strictly increasing docids.
  std::span<const DocId> run = {};

  size_t size() const {
    return plain != nullptr    ? plain->size()
           : packed != nullptr ? packed->size()
                               : run.size();
  }
};

/// A type-erased forward cursor over either posting representation with
/// the shared iterator contract (AtEnd/doc/tf/Next/SkipTo) plus the
/// block-max probe WAND pruning needs, so cost accounting is identical
/// whichever representation backs a term.
///
/// A default-constructed cursor is invalid (missing term); valid() must be
/// checked before iterating. Cursors are single-pass: create a fresh one
/// per scan.
class PostingCursor {
 public:
  PostingCursor() = default;

  PostingCursor(const PostingList* list, CostCounters* cost)
      : plain_src_(list), cost_(cost),
        size_(list == nullptr ? 0 : list->size()) {
    if (size_ > 0) plain_.emplace(list->MakeIterator(cost));
  }

  PostingCursor(const CompressedPostingList* list, CostCounters* cost)
      : packed_src_(list), cost_(cost),
        size_(list == nullptr ? 0 : list->size()) {
    if (size_ > 0) packed_.emplace(list->MakeIterator(cost));
  }

  /// False for a missing or empty term; such a cursor is immediately
  /// AtEnd and must not be dereferenced.
  bool valid() const { return size_ > 0; }
  size_t size() const { return size_; }

  bool AtEnd() const {
    if (plain_) return plain_->AtEnd();
    if (packed_) return packed_->AtEnd();
    return true;
  }
  DocId doc() const { return plain_ ? plain_->doc() : packed_->doc(); }
  uint32_t tf() const { return plain_ ? plain_->tf() : packed_->tf(); }

  void Next() {
    if (plain_) {
      plain_->Next();
    } else {
      packed_->Next();
    }
  }

  void SkipTo(DocId target) {
    if (plain_) {
      plain_->SkipTo(target);
    } else {
      packed_->SkipTo(target);
    }
  }

  /// Linear advance to the first posting with docid >= target — the merge
  /// strategy ChooseIntersectStrategy picks for comparably-sized lists.
  /// Same destination as SkipTo; only the entries_scanned cost differs.
  void MergeTo(DocId target) {
    if (plain_) {
      plain_->MergeTo(target);
    } else {
      packed_->MergeTo(target);
    }
  }

  /// Block-max probe from the cursor's current block/segment: reports the
  /// last docid and max tf of the block holding the first posting with
  /// docid >= target, without decoding it. False when exhausted.
  bool BlockBound(DocId target, DocId* block_last_doc,
                  uint32_t* block_max_tf) const {
    if (plain_) {
      return plain_src_->SegmentBound(target, plain_->segment(),
                                      block_last_doc, block_max_tf);
    }
    if (packed_) {
      return packed_src_->BlockBound(target, packed_->block(),
                                     block_last_doc, block_max_tf);
    }
    return false;
  }

  /// The compressed list backing this cursor, or nullptr when the term is
  /// plain/missing.
  const CompressedPostingList* packed_source() const { return packed_src_; }
  /// The uncompressed list backing this cursor, or nullptr.
  const PostingList* plain_source() const { return plain_src_; }
  CostCounters* cost() const { return cost_; }
  /// The list behind the cursor, for the conjunction engine.
  PostingRef ref() const { return PostingRef{plain_src_, packed_src_, cost_}; }

 private:
  // Exactly one iterator engaged for a valid cursor; the source pointers
  // back the block-max probes (iterators do not expose their lists).
  std::optional<PostingList::Iterator> plain_;
  std::optional<CompressedPostingList::Iterator> packed_;
  const PostingList* plain_src_ = nullptr;
  const CompressedPostingList* packed_src_ = nullptr;
  CostCounters* cost_ = nullptr;
  size_t size_ = 0;
};

}  // namespace csr

#endif  // CSR_INDEX_POSTING_CURSOR_H_
