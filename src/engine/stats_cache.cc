#include "engine/stats_cache.h"

#include <utility>

namespace csr {

StatsCache::StatsCache(size_t capacity, size_t num_shards)
    : lru_(capacity, num_shards),
      counters_(std::make_unique<ShardCounters[]>(lru_.num_shards())) {}

TermIdSet StatsCache::MakeKey(std::span<const TermId> context,
                              std::span<const TermId> keywords,
                              YearRange range, uint64_t epoch) {
  // Context and keywords are separated by a sentinel that can appear in
  // neither, so (ctx={1}, kw={2}) and (ctx={1,2}, kw={}) cannot collide;
  // the year range and the live-set epoch are appended the same way.
  TermIdSet key;
  key.reserve(context.size() + keywords.size() + 6);
  key.insert(key.end(), context.begin(), context.end());
  key.push_back(kInvalidTermId);
  key.insert(key.end(), keywords.begin(), keywords.end());
  if (range.active()) {
    key.push_back(kInvalidTermId);
    key.push_back(range.min_year);
    key.push_back(range.max_year);
  }
  if (epoch != 0) {
    key.push_back(kInvalidTermId);
    key.push_back(static_cast<TermId>(epoch & 0xFFFFFFFFu));
    key.push_back(static_cast<TermId>(epoch >> 32));
  }
  return key;
}

std::optional<CollectionStats> StatsCache::Get(
    std::span<const TermId> context, std::span<const TermId> keywords,
    YearRange range, uint64_t epoch) {
  if (capacity() == 0) return std::nullopt;
  TermIdSet key = MakeKey(context, keywords, range, epoch);
  const size_t shard = lru_.ShardOf(key);
  std::optional<CollectionStats> out(std::in_place);
  if (!lru_.Get(shard, key, &*out)) {
    counters_[shard].misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  counters_[shard].hits.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void StatsCache::Put(std::span<const TermId> context,
                     std::span<const TermId> keywords, YearRange range,
                     CollectionStats stats, uint64_t epoch) {
  if (capacity() == 0) return;
  TermIdSet key = MakeKey(context, keywords, range, epoch);
  const size_t shard = lru_.ShardOf(key);
  const uint64_t evicted =
      lru_.Put(shard, std::move(key), std::move(stats), /*weight=*/1).evicted;
  counters_[shard].evictions.fetch_add(evicted, std::memory_order_relaxed);
}

size_t StatsCache::size() const { return lru_.size(); }

uint64_t StatsCache::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards(); ++i) total += shard_hits(i);
  return total;
}

uint64_t StatsCache::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards(); ++i) total += shard_misses(i);
  return total;
}

uint64_t StatsCache::evictions() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards(); ++i) total += shard_evictions(i);
  return total;
}

size_t StatsCache::shard_size(size_t shard) const {
  return lru_.shard_size(shard);
}

size_t StatsCache::shard_capacity(size_t shard) const {
  return static_cast<size_t>(lru_.shard_capacity(shard));
}

uint64_t StatsCache::shard_hits(size_t shard) const {
  return counters_[shard].hits.load(std::memory_order_relaxed);
}

uint64_t StatsCache::shard_misses(size_t shard) const {
  return counters_[shard].misses.load(std::memory_order_relaxed);
}

uint64_t StatsCache::shard_evictions(size_t shard) const {
  return counters_[shard].evictions.load(std::memory_order_relaxed);
}

void StatsCache::Clear() {
  lru_.Clear();
  for (size_t i = 0; i < num_shards(); ++i) {
    counters_[i].hits.store(0, std::memory_order_relaxed);
    counters_[i].misses.store(0, std::memory_order_relaxed);
    counters_[i].evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace csr
