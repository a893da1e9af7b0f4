#ifndef CSR_ENGINE_CONTEXT_SET_CACHE_H_
#define CSR_ENGINE_CONTEXT_SET_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "engine/segments.h"
#include "engine/sharded_lru.h"
#include "obs/metrics.h"
#include "stats/context_set.h"
#include "util/types.h"

namespace csr {

/// A byte-budgeted, thread-safe cross-query cache of complete context sets
/// (DESIGN.md §18): D_P of one context over one part, built once and then
/// served by pointer to every query over that context, so a view plan's
/// untracked-keyword df is one 2-way join instead of an (m + 1)-way chain,
/// and a straightforward-served part skips its D_P build.
///
/// Keys never name two document sets: a key is (segment id, year range,
/// sorted P). A sealed segment is immutable and its id is never reused; the
/// unsealed write segment has no key. The base keeps segment id 0 while
/// FlattenSegments rebuilds it, so FlattenSegments (which runs with
/// exclusive access) clears the cache. Keys of merged-away segments are
/// never looked up again and age out under the budget.
///
/// Storage is a ShardedLru weighted by bytes: each entry charges its set's
/// MemoryBytes, its key and kEntryOverheadBytes against its shard's share
/// of the budget, so the bytes held never exceed the budget. A set is held
/// by shared_ptr, so one evicted while a query still reads it stays alive
/// until that query drops it. The hit/miss/eviction counters and the bytes
/// gauge live in the metrics registry (engine.context_set_cache.*) and
/// nowhere else.
class ContextSetCache {
 public:
  /// Charged per entry beyond its key and set: the LRU and hash nodes and
  /// the shared_ptr control block.
  static constexpr uint64_t kEntryOverheadBytes = 128;

  /// `budget_bytes` must be > 0 (the engine creates no cache for 0);
  /// `num_shards` == 0 picks ShardedLru's default. Registers the cache's
  /// instruments in `registry`, which must outlive the cache.
  ContextSetCache(uint64_t budget_bytes, MetricsRegistry& registry,
                  size_t num_shards = 0);

  ContextSetCache(const ContextSetCache&) = delete;
  ContextSetCache& operator=(const ContextSetCache&) = delete;

  /// The key of `context` (sorted) under `range` over `part`, or nullopt
  /// when the part's document set can still change (the write segment).
  static std::optional<TermIdSet> Key(const SearchPart& part,
                                      std::span<const TermId> context,
                                      YearRange range);

  /// The set under `key`, counting a hit, or null, counting a miss.
  std::shared_ptr<const ContextSet> Get(const TermIdSet& key);

  /// Stores `set` under `key`, replacing an older set. A null or
  /// incomplete set (a guard tripped mid-build) is never stored.
  void Put(const TermIdSet& key, std::shared_ptr<const ContextSet> set);

  /// Drops every set (the counters keep their totals).
  void Clear();

  /// Sets held.
  size_t size() const { return lru_.size(); }
  /// Bytes held, from the registry gauge.
  uint64_t bytes() const { return static_cast<uint64_t>(bytes_.value()); }
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

 private:
  ShardedLru<std::shared_ptr<const ContextSet>> lru_;
  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Gauge& bytes_;
};

}  // namespace csr

#endif  // CSR_ENGINE_CONTEXT_SET_CACHE_H_
