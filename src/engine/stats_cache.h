#ifndef CSR_ENGINE_STATS_CACHE_H_
#define CSR_ENGINE_STATS_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "engine/sharded_lru.h"
#include "stats/statistics.h"
#include "util/types.h"

namespace csr {

/// Thread-safe LRU cache for collection statistics keyed by
/// (context, keywords, year range). Context-sensitive workloads revisit the
/// same few contexts constantly (every GI researcher searches within
/// "digestive system"), and the statistics of a context are immutable for a
/// static collection — a natural cache.
///
/// Concurrency: the cache is a ShardedLru (engine/sharded_lru.h) weighted
/// one unit per entry: `num_shards` independent LRU shards, each guarded
/// by its own mutex. A key maps to exactly one shard (by hash of its
/// context signature), so concurrent queries over *different* contexts
/// proceed without contending on a lock, and contention on the *same*
/// context is limited to the microseconds of a map lookup + splice.
/// Get/Put/Clear and all counters are safe to call from any number of
/// threads; LRU order and capacity are maintained per shard.
///
/// Counters (hits/misses/evictions) are per-shard relaxed atomics, one
/// increment per Get or eviction, so none is lost — hits() + misses()
/// equals the number of Get calls that reached a shard once the callers
/// are quiescent, even after concurrent hammering. Aggregate accessors sum
/// the shards and are monotonic but not a single snapshot across shards.
class StatsCache {
 public:
  /// Default shard count when the caller does not pick one.
  static constexpr size_t kDefaultShards =
      ShardedLru<CollectionStats>::kDefaultShards;

  /// capacity == 0 disables the cache (Get always misses, Put drops).
  /// `num_shards` == 0 picks kDefaultShards; tests pass 1 for a single
  /// deterministic LRU. The count — requested or defaulted — is clamped to
  /// [1, capacity] so no shard ends up with zero capacity. The total
  /// capacity is distributed across shards (each shard gets
  /// capacity/num_shards, remainder spread over the first shards), so the
  /// sum of shard capacities == capacity and every shard holds >= 1 entry.
  explicit StatsCache(size_t capacity, size_t num_shards = 0);

  StatsCache(const StatsCache&) = delete;
  StatsCache& operator=(const StatsCache&) = delete;

  /// Returns a copy of the cached stats, or nullopt on a miss. A copy —
  /// not a pointer — because a concurrent Put/eviction on the same shard
  /// may drop the entry the moment the shard lock is released.
  ///
  /// `epoch` is part of the key: the engine stamps every live-set publish
  /// (append, seal, merge) with a new epoch, so a query can only hit
  /// entries computed against the exact collection snapshot it is serving
  /// from — a Put racing an append can never poison post-append queries.
  /// Entries from dead epochs age out through normal LRU pressure.
  std::optional<CollectionStats> Get(std::span<const TermId> context,
                                     std::span<const TermId> keywords,
                                     YearRange range = {},
                                     uint64_t epoch = 0);

  void Put(std::span<const TermId> context,
           std::span<const TermId> keywords, YearRange range,
           CollectionStats stats, uint64_t epoch = 0);

  void Put(std::span<const TermId> context,
           std::span<const TermId> keywords, CollectionStats stats) {
    Put(context, keywords, YearRange{}, std::move(stats));
  }

  /// Entries currently cached, summed over shards.
  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

  size_t capacity() const { return static_cast<size_t>(lru_.capacity()); }
  size_t num_shards() const { return lru_.num_shards(); }

  // Per-shard introspection (tests, telemetry).
  size_t shard_size(size_t shard) const;
  size_t shard_capacity(size_t shard) const;
  uint64_t shard_hits(size_t shard) const;
  uint64_t shard_misses(size_t shard) const;
  uint64_t shard_evictions(size_t shard) const;

  void Clear();

 private:
  static TermIdSet MakeKey(std::span<const TermId> context,
                           std::span<const TermId> keywords,
                           YearRange range, uint64_t epoch);

  struct ShardCounters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  ShardedLru<CollectionStats> lru_;
  std::unique_ptr<ShardCounters[]> counters_;  // one per shard
};

}  // namespace csr

#endif  // CSR_ENGINE_STATS_CACHE_H_
