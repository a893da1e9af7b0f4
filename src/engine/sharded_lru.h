#ifndef CSR_ENGINE_SHARDED_LRU_H_
#define CSR_ENGINE_SHARDED_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/types.h"

namespace csr {

/// The shard/lock/budget machinery both engine caches share: a map from
/// TermIdSet keys to values, striped into `num_shards` LRU shards, each
/// guarded by its own mutex and holding its share of a total weight
/// budget. Weight is whatever the owner charges per entry — one unit for
/// StatsCache (a capacity in entries), the entry's bytes for
/// ContextSetCache (a byte budget). A key maps to exactly one shard, so
/// concurrent lookups on different keys rarely contend, and the shards'
/// weights never sum past the budget.
///
/// The map counts nothing itself: Get reports a hit by its return value
/// and Put reports what it evicted, so each owner keeps its counters in
/// one place of its choosing.
template <typename V>
class ShardedLru {
 public:
  /// What one Put changed: entries evicted to make room, and the change
  /// in the total weight held (insert, replacement and evictions).
  struct PutResult {
    uint64_t evicted = 0;
    int64_t weight_delta = 0;
  };

  /// Shard count when the owner does not pick one.
  static constexpr size_t kDefaultShards = 8;

  /// `num_shards` == 0 picks kDefaultShards. The count is clamped to
  /// [1, capacity] so no shard ends up with a zero budget, and the budget
  /// is spread over the shards (the first capacity % shards take one unit
  /// more), so the shard budgets sum to `capacity`.
  ShardedLru(uint64_t capacity, size_t num_shards) : capacity_(capacity) {
    if (num_shards == 0) num_shards = kDefaultShards;
    num_shards_ = static_cast<size_t>(std::max<uint64_t>(
        1, std::min<uint64_t>(num_shards, std::max<uint64_t>(capacity, 1))));
    shards_ = std::make_unique<Shard[]>(num_shards_);
    const uint64_t base = capacity_ / num_shards_;
    const uint64_t extra = capacity_ % num_shards_;
    for (size_t i = 0; i < num_shards_; ++i) {
      shards_[i].capacity = base + (i < extra ? 1 : 0);
    }
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Key -> shard. Uses the upper bits of the key hash so the shard choice
  /// stays decorrelated from the in-shard bucket choice (the low bits).
  size_t ShardOf(const TermIdSet& key) const {
    const uint64_t h = HashTermIds(key);
    return static_cast<size_t>((h >> 32) ^ h) % num_shards_;
  }

  /// Copies the value of `key` (which must live in `shard`) into `*out`
  /// under the shard lock and marks it most recently used. False on a
  /// miss. A copy, not a pointer: a concurrent Put may evict the entry
  /// the moment the lock drops.
  bool Get(size_t shard, const TermIdSet& key, V* out) {
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    *out = it->second->value;
    return true;
  }

  /// Inserts or replaces `key` as the most recent entry of `shard`, then
  /// evicts from the cold end until the shard is within its budget. An
  /// entry heavier than the whole shard budget is not stored (and any old
  /// value under its key is dropped), so the budget is never exceeded.
  PutResult Put(size_t shard, TermIdSet key, V value, uint64_t weight) {
    PutResult r;
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      r.weight_delta -= static_cast<int64_t>(it->second->weight);
      s.weight -= it->second->weight;
      s.lru.erase(it->second);
      s.map.erase(it);
    }
    if (weight > s.capacity) return r;
    s.lru.push_front(Entry{key, std::move(value), weight});
    s.map.emplace(std::move(key), s.lru.begin());
    s.weight += weight;
    r.weight_delta += static_cast<int64_t>(weight);
    while (s.weight > s.capacity) {
      const Entry& cold = s.lru.back();
      s.weight -= cold.weight;
      r.weight_delta -= static_cast<int64_t>(cold.weight);
      s.map.erase(cold.key);
      s.lru.pop_back();
      ++r.evicted;
    }
    return r;
  }

  /// Drops every entry; returns the weight that was held.
  uint64_t Clear() {
    uint64_t dropped = 0;
    for (size_t i = 0; i < num_shards_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      dropped += shards_[i].weight;
      shards_[i].lru.clear();
      shards_[i].map.clear();
      shards_[i].weight = 0;
    }
    return dropped;
  }

  uint64_t capacity() const { return capacity_; }
  size_t num_shards() const { return num_shards_; }

  /// Entries held, summed over the shards.
  size_t size() const {
    size_t total = 0;
    for (size_t i = 0; i < num_shards_; ++i) total += shard_size(i);
    return total;
  }
  size_t shard_size(size_t shard) const {
    std::lock_guard<std::mutex> lock(shards_[shard].mu);
    return shards_[shard].map.size();
  }
  uint64_t shard_capacity(size_t shard) const {
    return shards_[shard].capacity;
  }

 private:
  struct Entry {
    TermIdSet key;
    V value;
    uint64_t weight;
  };
  struct Shard {
    mutable std::mutex mu;
    uint64_t capacity = 0;
    uint64_t weight = 0;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<TermIdSet, typename std::list<Entry>::iterator,
                       TermIdSetHash>
        map;
  };

  uint64_t capacity_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace csr

#endif  // CSR_ENGINE_SHARDED_LRU_H_
