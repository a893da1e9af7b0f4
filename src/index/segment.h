#ifndef CSR_INDEX_SEGMENT_H_
#define CSR_INDEX_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "index/codec.h"
#include "index/inverted_index.h"
#include "util/result.h"
#include "util/types.h"

namespace csr {

/// One LSM segment of the live corpus (DESIGN.md §14): an immutable slice
/// of the document collection covering the contiguous global docid range
/// [base, base + num_docs), indexed by its own content and predicate
/// inverted indexes. Docids inside the segment's indexes are LOCAL —
/// [0, num_docs) — so every existing read path (PostingCursor, the
/// conjunction engine, Block-Max WAND, the SIMD decode kernels, the cost
/// model) applies to a segment unchanged; callers add `base` when they
/// need the global id.
///
/// Lifecycle: a segment is born as the engine's mutable write segment
/// (`sealed == false`, uncompressed postings, rebuilt on every append
/// batch and republished as an immutable snapshot), seals once it reaches
/// EngineConfig::mem_segment_max_docs (postings compacted with the
/// engine's codec policy, bytes frozen), and eventually merges with an
/// adjacent sealed segment into a bigger one. Once published in a LiveSet
/// a segment object is never mutated; replacement is by pointer swap.
struct IndexSegment {
  /// Monotonically increasing id, unique within one engine lifetime
  /// (merges allocate a fresh id). Id 0 is reserved for the base segment.
  uint64_t id = 0;

  /// Global docid of this segment's local document 0.
  DocId base = 0;

  uint32_t num_docs = 0;

  /// Sealed segments are immutable and (when the engine serves compressed
  /// postings) block-compressed; the unsealed write segment stays
  /// uncompressed because it is rebuilt on every append batch.
  bool sealed = false;

  InvertedIndex content;    // local docids [0, num_docs)
  InvertedIndex predicate;  // local docids [0, num_docs)

  /// Publication year per local document (the Section 7 time dimension).
  std::vector<uint16_t> years;

  IndexSegment() = default;
  IndexSegment(const IndexSegment&) = delete;
  IndexSegment& operator=(const IndexSegment&) = delete;
  IndexSegment(IndexSegment&&) = default;
  IndexSegment& operator=(IndexSegment&&) = default;

  uint64_t MemoryBytes() const {
    return content.MemoryBytes() + predicate.MemoryBytes() +
           years.size() * sizeof(uint16_t);
  }
};

/// Concatenates two indexes over adjacent docid ranges: `b`'s postings are
/// appended to `a`'s with every docid offset by a.num_docs(). The merged
/// index is uncompressed (the caller compacts with its codec policy);
/// because block compaction is a pure function of the logical posting
/// sequence, compacting the merge of adjacent segments yields bit-identical
/// block bytes to compacting a scratch-built index over the same documents.
/// `segment_size` is the skip-segment granularity of the merged posting
/// lists (0 = PostingList::kDefaultSegmentSize).
InvertedIndex MergeIndexes(const InvertedIndex& a, const InvertedIndex& b,
                           uint32_t segment_size = 0);

/// Merges two ADJACENT segments (b.base must equal a.base + a.num_docs)
/// into one unsealed, uncompressed segment covering both ranges with the
/// given fresh id. Returns InvalidArgument when the ranges are not
/// adjacent. The result keeps `a.base`; the caller seals/compacts it.
Result<IndexSegment> MergeSegments(const IndexSegment& a,
                                   const IndexSegment& b, uint64_t merged_id,
                                   uint32_t segment_size = 0);

}  // namespace csr

#endif  // CSR_INDEX_SEGMENT_H_
