#ifndef CSR_INDEX_INVERTED_INDEX_H_
#define CSR_INDEX_INVERTED_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/codec.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "util/result.h"
#include "util/types.h"

namespace csr {

/// An immutable inverted index over one field: TermId -> posting list, plus
/// the per-document and whole-collection statistics that conventional
/// ranking needs (Table 1): |D|, len(D), df(w, D), tc(w, D).
///
/// The index serves from one of two representations: uncompressed
/// PostingLists (the build-time form) or, after Compact(), FOR/varint
/// block-compressed lists with block-max metadata. All read paths go
/// through cursor()/df()/tc()/term_max_tf(), which work identically on
/// either representation; list() is the legacy uncompressed accessor and
/// returns nullptr once the index is compacted.
///
/// The engine maintains two of these: a content index (keywords in
/// title/abstract) and a predicate index (ontology annotations used in
/// context specifications).
class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Converts every posting list to the block-compressed representation
  /// and frees the uncompressed lists. Idempotent. `block_size` 0 means
  /// CompressedPostingList::kDefaultBlockSize.
  void Compact(uint32_t block_size = 0,
               CodecPolicy policy = CodecPolicy::kAuto);

  bool compressed() const { return compacted_; }

  /// Assembles a compacted index directly from persisted compressed lists
  /// (the snapshot load path; no decode-reencode round trip).
  static InvertedIndex FromCompressedParts(
      std::vector<CompressedPostingList> lists,
      std::vector<uint32_t> doc_lengths, uint64_t total_length);

  /// Assembles an uncompacted index from finished posting lists (the
  /// segment-merge path: adjacent segments' lists are concatenated
  /// posting-by-posting, then Compact() reproduces the scratch-built block
  /// bytes). Every list must already have FinishBuild() called.
  static InvertedIndex FromPostingLists(std::vector<PostingList> lists,
                                        std::vector<uint32_t> doc_lengths,
                                        uint64_t total_length);

  /// Returns the uncompressed posting list for `t`, or nullptr if the term
  /// has no postings — or the index has been compacted (use cursor()).
  const PostingList* list(TermId t) const {
    if (compacted_ || t >= lists_.size() || lists_[t].empty()) return nullptr;
    return &lists_[t];
  }

  /// The compressed posting list for `t`, or nullptr when the term has no
  /// postings or the index is uncompacted.
  const CompressedPostingList* clist(TermId t) const {
    if (!compacted_ || t >= clists_.size() || clists_[t].empty()) {
      return nullptr;
    }
    return &clists_[t];
  }

  /// A cursor over term t's postings in whichever representation the index
  /// holds; invalid (cursor.valid() == false) when the term is absent.
  PostingCursor cursor(TermId t, CostCounters* cost = nullptr) const {
    if (compacted_) return PostingCursor(clist(t), cost);
    return PostingCursor(list(t), cost);
  }

  /// Term t's list for the conjunction engine, charging `cost`; size() 0
  /// when the term is absent. Unlike cursor(), decodes nothing.
  PostingRef ref(TermId t, CostCounters* cost = nullptr) const {
    if (compacted_) return PostingRef{nullptr, clist(t), cost};
    return PostingRef{list(t), nullptr, cost};
  }

  size_t num_terms() const {
    return compacted_ ? clists_.size() : lists_.size();
  }
  uint64_t num_docs() const { return doc_lengths_.size(); }
  uint64_t total_length() const { return total_length_; }

  /// Document frequency df(w, D): number of documents containing w.
  uint64_t df(TermId t) const {
    if (compacted_) return t < clists_.size() ? clists_[t].size() : 0;
    return t < lists_.size() ? lists_[t].size() : 0;
  }

  /// Collection term count tc(w, D): total occurrences of w in D.
  uint64_t tc(TermId t) const {
    if (compacted_) return t < clists_.size() ? clists_[t].total_tf() : 0;
    return t < lists_.size() ? lists_[t].total_tf() : 0;
  }

  /// Largest tf of term t in any document; feeds WAND upper bounds.
  uint32_t term_max_tf(TermId t) const {
    if (compacted_) return t < clists_.size() ? clists_[t].max_tf() : 0;
    return t < lists_.size() ? lists_[t].max_tf() : 0;
  }

  /// Length (token count) of document d.
  uint32_t doc_length(DocId d) const { return doc_lengths_[d]; }
  std::span<const uint32_t> doc_lengths() const { return doc_lengths_; }

  /// Average document length over the whole collection.
  double avg_doc_length() const {
    return doc_lengths_.empty()
               ? 0.0
               : static_cast<double>(total_length_) / doc_lengths_.size();
  }

  /// Per-representation block counts summed over every compressed list,
  /// indexed by BlockCodec ([varint, for, bitmap]). All zero while the
  /// index is uncompacted. Feeds the shell's .stats kernels line and the
  /// bench's kernels section.
  std::array<uint64_t, 3> CodecBlockCounts() const {
    std::array<uint64_t, 3> totals{};
    for (const CompressedPostingList& l : clists_) {
      const std::array<uint64_t, 3>& c = l.codec_block_counts();
      for (size_t k = 0; k < totals.size(); ++k) totals[k] += c[k];
    }
    return totals;
  }

  uint64_t MemoryBytes() const;

  /// What the postings would occupy uncompressed (actual bytes before
  /// Compact(), the modeled equivalent after); the numerator of the
  /// compression ratio reported by .stats and the codec bench.
  uint64_t UncompressedMemoryBytes() const;

 private:
  friend class IndexBuilder;

  bool compacted_ = false;
  std::vector<PostingList> lists_;
  std::vector<CompressedPostingList> clists_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_length_ = 0;
};

/// Accumulates documents (in increasing, contiguous DocId order starting at
/// 0) and produces an immutable InvertedIndex.
class IndexBuilder {
 public:
  explicit IndexBuilder(
      uint32_t segment_size = PostingList::kDefaultSegmentSize)
      : segment_size_(segment_size) {}

  /// Adds the tokens of document `doc`. Tokens may repeat; repetitions
  /// become term frequency. Returns InvalidArgument if `doc` is not exactly
  /// the next expected docid.
  Status AddDocument(DocId doc, std::span<const TermId> tokens);

  /// Finalizes and returns the index. The builder is left empty.
  InvertedIndex Build();

  uint64_t num_docs() const { return next_doc_; }

 private:
  uint32_t segment_size_;
  DocId next_doc_ = 0;
  std::vector<PostingList> lists_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_length_ = 0;
  // Scratch reused across AddDocument calls.
  std::vector<TermId> scratch_;
};

}  // namespace csr

#endif  // CSR_INDEX_INVERTED_INDEX_H_
