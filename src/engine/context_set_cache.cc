#include "engine/context_set_cache.h"

#include <utility>

namespace csr {

ContextSetCache::ContextSetCache(uint64_t budget_bytes,
                                 MetricsRegistry& registry, size_t num_shards)
    : lru_(budget_bytes, num_shards),
      hits_(registry.GetCounter("engine.context_set_cache.hits")),
      misses_(registry.GetCounter("engine.context_set_cache.misses")),
      evictions_(registry.GetCounter("engine.context_set_cache.evictions")),
      bytes_(registry.GetGauge("engine.context_set_cache.bytes")) {}

std::optional<TermIdSet> ContextSetCache::Key(const SearchPart& part,
                                              std::span<const TermId> context,
                                              YearRange range) {
  if (!part.sealed) return std::nullopt;
  // The segment id, the year range when active (uint16 bounds, never equal
  // to the sentinel), then the sentinel and P: no two (part, range, P)
  // triples share a key.
  TermIdSet key;
  key.reserve(5 + context.size());
  key.push_back(static_cast<TermId>(part.segment_id & 0xFFFFFFFFu));
  key.push_back(static_cast<TermId>(part.segment_id >> 32));
  if (range.active()) {
    key.push_back(range.min_year);
    key.push_back(range.max_year);
  }
  key.push_back(kInvalidTermId);
  key.insert(key.end(), context.begin(), context.end());
  return key;
}

std::shared_ptr<const ContextSet> ContextSetCache::Get(const TermIdSet& key) {
  std::shared_ptr<const ContextSet> set;
  if (lru_.Get(lru_.ShardOf(key), key, &set)) {
    hits_.Increment();
  } else {
    misses_.Increment();
  }
  return set;
}

void ContextSetCache::Put(const TermIdSet& key,
                          std::shared_ptr<const ContextSet> set) {
  if (set == nullptr || !set->complete()) return;
  const uint64_t weight = kEntryOverheadBytes + key.size() * sizeof(TermId) +
                          set->MemoryBytes();
  const auto r = lru_.Put(lru_.ShardOf(key), key, std::move(set), weight);
  if (r.evicted > 0) evictions_.Increment(r.evicted);
  if (r.weight_delta != 0) bytes_.Add(static_cast<double>(r.weight_delta));
}

void ContextSetCache::Clear() {
  const uint64_t dropped = lru_.Clear();
  if (dropped != 0) bytes_.Add(-static_cast<double>(dropped));
}

}  // namespace csr
