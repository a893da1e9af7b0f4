#ifndef CSR_ENGINE_SEGMENTS_H_
#define CSR_ENGINE_SEGMENTS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/segment.h"
#include "views/materialized_view.h"

namespace csr {

/// One live segment beyond the base: the index slice plus this segment's
/// materialized-view deltas — per-view partial aggregates over exactly the
/// segment's documents, stored in the base catalog's insertion order so
/// ViewCatalog::FindBestIndex addresses both the base view and every
/// segment's delta. Deltas are maintained synchronously at append/seal, so
/// the view plan and the straightforward plan always agree; "staleness" is
/// merge lag (aggregates not yet physically folded into the base), never
/// wrong answers.
struct EngineSegment {
  IndexSegment index;
  std::vector<MaterializedView> view_deltas;

  EngineSegment() = default;
  EngineSegment(const EngineSegment&) = delete;
  EngineSegment& operator=(const EngineSegment&) = delete;
  EngineSegment(EngineSegment&&) = default;
  EngineSegment& operator=(EngineSegment&&) = default;
};

/// Immutable snapshot of the engine's segmented state: the extras partition
/// the global docid range [base_docs, total_docs) in ascending, contiguous
/// order; at most the last one is the unsealed write buffer. Published by
/// shared_ptr swap under a leaf mutex — a query takes one snapshot and
/// serves entirely from it, so concurrent appends, seals, and merges never
/// move data under a running query.
struct LiveSet {
  std::vector<std::shared_ptr<const EngineSegment>> extras;
  uint64_t base_docs = 0;
  uint64_t total_docs = 0;

  /// Monotonic publish stamp. Keys the stats cache so a cached statistic
  /// can only be served to queries seeing the same collection snapshot.
  uint64_t epoch = 1;
};

/// One part of a segmented query plan: the base index or one extra
/// segment, viewed through the uniform surface the per-part stats and
/// retrieval loops need. `years` is indexed by LOCAL docid; `base` maps
/// local to global. `view_deltas` is nullptr for the base part (the base
/// catalog's views are the "delta" of the base). A sealed part's
/// segment_id names its document set: sealed segments are immutable and
/// their ids are never reused (the base, id 0, changes only under
/// FlattenSegments).
struct SearchPart {
  const InvertedIndex* content = nullptr;
  const InvertedIndex* predicate = nullptr;
  std::span<const uint16_t> years;
  DocId base = 0;
  uint64_t segment_id = 0;
  bool sealed = true;  // false for the unsealed write segment
  const std::vector<MaterializedView>* view_deltas = nullptr;
};

/// Per-segment shape row for the shell's `.segments`, tests, and benches.
struct SegmentInfo {
  uint64_t id = 0;
  DocId base = 0;
  uint32_t num_docs = 0;
  bool sealed = false;
  std::array<uint64_t, 3> codec_blocks{};  // [varint, FOR, bitmap]
  uint64_t view_delta_tuples = 0;
  uint64_t memory_bytes = 0;
};

}  // namespace csr

#endif  // CSR_ENGINE_SEGMENTS_H_
