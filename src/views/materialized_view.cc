#include "views/materialized_view.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace csr {

void MaterializedView::AddDocument(
    const BitSignature& sig, uint32_t doc_length,
    std::span<const std::pair<uint32_t, uint32_t>> tracked_terms,
    uint16_t year) {
  if (compacted_) Uncompact();
  TupleKey key{sig, 0};
  if (options_.year_bucket_size > 0) {
    key.bucket = static_cast<uint16_t>(year / options_.year_bucket_size);
  }
  Row& row = rows_[key];
  if (row.count == 0 && options_.track_df) {
    row.df.assign(num_tracked_, 0);
  }
  if (row.count == 0 && options_.track_tc) {
    row.tc.assign(num_tracked_, 0);
  }
  row.count++;
  row.sum_len += doc_length;
  if (options_.track_df || options_.track_tc) {
    for (const auto& [slot, tf] : tracked_terms) {
      if (options_.track_df) row.df[slot]++;
      if (options_.track_tc) row.tc[slot] += tf;
    }
  }
}

MaterializedView MaterializedView::Clone() const {
  MaterializedView copy(def_, options_, num_tracked_);
  copy.rows_ = rows_;
  copy.compacted_ = compacted_;
  copy.store_ = store_;
  return copy;
}

void MaterializedView::MergeFrom(const MaterializedView& other) {
  assert(other.compacted_);
  Compact();
  const ColumnStore& a = store_;
  const ColumnStore& b = other.store_;
  const size_t sig_words = (def_.num_columns() + 63) / 64;
  const std::vector<uint64_t> sig_a = RowSignatures();
  const std::vector<uint64_t> sig_b = other.RowSignatures();
  auto bucket = [](const ColumnStore& s, size_t r) {
    return s.buckets.empty() ? uint16_t{0} : s.buckets[r];
  };
  // Both stores are sorted by (bucket, signature words): one two-pointer
  // pass pairs the rows, each output row taking a row of either side or
  // of both (kNone marks the missing side).
  constexpr size_t kNone = SIZE_MAX;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(a.rows + b.rows);
  size_t i = 0;
  size_t j = 0;
  while (i < a.rows || j < b.rows) {
    int order = i == a.rows ? 1 : j == b.rows ? -1 : 0;
    if (order == 0 && bucket(a, i) != bucket(b, j)) {
      order = bucket(a, i) < bucket(b, j) ? -1 : 1;
    }
    if (order == 0) {
      const uint64_t* wa = sig_a.data() + i * sig_words;
      const uint64_t* wb = sig_b.data() + j * sig_words;
      const auto [ea, eb] = std::mismatch(wa, wa + sig_words, wb);
      if (ea != wa + sig_words) order = *ea < *eb ? -1 : 1;
    }
    pairs.emplace_back(order <= 0 ? i++ : kNone, order >= 0 ? j++ : kNone);
  }

  const size_t n = pairs.size();
  ColumnStore m;
  m.rows = n;
  m.words = (n + 63) / 64;
  m.bitmaps.assign(def_.num_columns() * m.words, 0);
  if (options_.year_bucket_size > 0) m.buckets.resize(n);
  m.counts.resize(n);
  m.sum_lens.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const auto [ra, rb] = pairs[r];
    const uint64_t* words = ra != kNone ? sig_a.data() + ra * sig_words
                                        : sig_b.data() + rb * sig_words;
    for (size_t k = 0; k < sig_words; ++k) {
      for (uint64_t bits = words[k]; bits != 0; bits &= bits - 1) {
        size_t c = k * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        m.bitmaps[c * m.words + r / 64] |= 1ULL << (r % 64);
      }
    }
    if (!m.buckets.empty()) {
      m.buckets[r] = ra != kNone ? a.buckets[ra] : b.buckets[rb];
    }
    m.counts[r] = (ra != kNone ? a.counts[ra] : 0) +
                  (rb != kNone ? b.counts[rb] : 0);
    m.sum_lens[r] = (ra != kNone ? a.sum_lens[ra] : 0) +
                    (rb != kNone ? b.sum_lens[rb] : 0);
  }
  // The parameter columns, slot by slot.
  auto sum_columns = [&](bool tracked, const std::vector<uint32_t>& ca,
                         const std::vector<uint32_t>& cb,
                         std::vector<uint32_t>& out) {
    if (!tracked) return;
    out.resize(size_t{num_tracked_} * n);
    for (uint32_t slot = 0; slot < num_tracked_; ++slot) {
      const uint32_t* sa = ca.data() + size_t{slot} * a.rows;
      const uint32_t* sb = cb.data() + size_t{slot} * b.rows;
      uint32_t* dst = out.data() + size_t{slot} * n;
      for (size_t r = 0; r < n; ++r) {
        const auto [ra, rb] = pairs[r];
        dst[r] = (ra != kNone ? sa[ra] : 0) + (rb != kNone ? sb[rb] : 0);
      }
    }
  };
  sum_columns(options_.track_df, a.df, b.df, m.df);
  sum_columns(options_.track_tc, a.tc, b.tc, m.tc);
  store_ = std::move(m);
}

bool MaterializedView::RangeAnswerable(YearRange range) const {
  if (!range.active()) return true;
  uint16_t b = options_.year_bucket_size;
  if (b == 0) return false;
  // The range must cover whole buckets: [min, max] answerable iff min is a
  // bucket start and max is a bucket end.
  return range.min_year % b == 0 && (range.max_year + 1) % b == 0 &&
         range.min_year <= range.max_year;
}

MaterializedView::StatsResult MaterializedView::ComputeStats(
    std::span<const TermId> context, std::span<const TermId> keywords,
    const TrackedKeywords& tracked, CostCounters* cost,
    YearRange range) const {
  assert(compacted_);
  StatsResult out;
  out.df.assign(keywords.size(), 0);
  out.tc.assign(keywords.size(), 0);
  out.covered.assign(keywords.size(), false);

  if (!def_.Covers(context)) return out;
  if (!RangeAnswerable(range)) {
    out.range_answerable = false;
    return out;
  }

  // Which keywords have a parameter column in this view, and where.
  const ColumnStore& s = store_;
  struct Param {
    size_t i;
    const uint32_t* df;
    const uint32_t* tc;
  };
  std::vector<Param> params;
  for (size_t i = 0; i < keywords.size(); ++i) {
    int32_t slot = tracked.SlotOf(keywords[i]);
    out.covered[i] = slot >= 0 && (options_.track_df || options_.track_tc);
    if (!out.covered[i]) continue;
    size_t at = static_cast<size_t>(slot) * s.rows;
    params.push_back({i, s.df.empty() ? nullptr : s.df.data() + at,
                      s.tc.empty() ? nullptr : s.tc.data() + at});
  }

  // P's row bitmaps.
  std::vector<const uint64_t*> columns;
  columns.reserve(context.size());
  for (TermId m : context) {
    int32_t bit = def_.BitOf(m);
    if (bit < 0) return out;  // unreachable given Covers(context)
    columns.push_back(s.bitmaps.data() + static_cast<size_t>(bit) * s.words);
  }

  // Rows are bucket-sorted, so a bucket range is one row interval.
  if (cost != nullptr) cost->view_tuples_scanned += s.rows;
  size_t lo = 0;
  size_t hi = s.rows;
  if (range.active()) {
    auto lo_it = std::lower_bound(
        s.buckets.begin(), s.buckets.end(),
        static_cast<uint16_t>(range.min_year / options_.year_bucket_size));
    auto hi_it = std::upper_bound(
        lo_it, s.buckets.end(),
        static_cast<uint16_t>(range.max_year / options_.year_bucket_size));
    lo = static_cast<size_t>(lo_it - s.buckets.begin());
    hi = static_cast<size_t>(hi_it - s.buckets.begin());
  }
  if (lo >= hi) return out;

  // AND the bitmaps word by word, masking the interval's edge words, and
  // fold only the matching rows.
  const size_t first_word = lo / 64;
  const size_t last_word = (hi - 1) / 64;
  for (size_t w = first_word; w <= last_word; ++w) {
    uint64_t bits = ~0ULL;
    if (w == first_word) bits &= ~0ULL << (lo % 64);
    if (w == last_word) bits &= ~0ULL >> (63 - (hi - 1) % 64);
    for (const uint64_t* column : columns) {
      bits &= column[w];
      if (bits == 0) break;
    }
    while (bits != 0) {
      size_t r = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      out.cardinality += s.counts[r];
      out.total_length += s.sum_lens[r];
      for (const Param& p : params) {
        if (p.df != nullptr) out.df[p.i] += p.df[r];
        if (p.tc != nullptr) out.tc[p.i] += p.tc[r];
      }
    }
  }
  return out;
}

void MaterializedView::Compact() {
  if (compacted_) return;
  // Sort by (bucket, signature words) so the compacted order — and
  // therefore serialized snapshots — is deterministic, unlike hash-map
  // iteration, and so every bucket range is one row interval.
  std::vector<const std::pair<const TupleKey, Row>*> sorted;
  sorted.reserve(rows_.size());
  for (const auto& kv : rows_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->first.bucket != b->first.bucket) {
      return a->first.bucket < b->first.bucket;
    }
    return a->first.sig.raw_words() < b->first.sig.raw_words();
  });

  const size_t n = sorted.size();
  ColumnStore s;
  s.rows = n;
  s.words = (n + 63) / 64;
  s.bitmaps.assign(def_.num_columns() * s.words, 0);
  if (options_.year_bucket_size > 0) s.buckets.resize(n);
  s.counts.resize(n);
  s.sum_lens.resize(n);
  if (options_.track_df) s.df.assign(size_t{num_tracked_} * n, 0);
  if (options_.track_tc) s.tc.assign(size_t{num_tracked_} * n, 0);
  for (size_t r = 0; r < n; ++r) {
    const TupleKey& key = sorted[r]->first;
    const std::vector<uint64_t>& words = key.sig.raw_words();
    for (size_t k = 0; k < words.size(); ++k) {
      for (uint64_t bits = words[k]; bits != 0; bits &= bits - 1) {
        size_t c = k * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        s.bitmaps[c * s.words + r / 64] |= 1ULL << (r % 64);
      }
    }
    if (!s.buckets.empty()) s.buckets[r] = key.bucket;
    s.counts[r] = sorted[r]->second.count;
    s.sum_lens[r] = sorted[r]->second.sum_len;
  }
  // Transpose the parameter rows into columns a tile of rows at a time,
  // so each slot's writes for a tile share one cache line.
  constexpr size_t kTile = 16;
  auto transpose = [&](std::vector<uint32_t>& column,
                       std::vector<uint32_t> Row::*field) {
    if (column.empty()) return;
    const uint32_t* src[kTile];
    for (size_t r0 = 0; r0 < n; r0 += kTile) {
      const size_t tile = std::min(kTile, n - r0);
      for (size_t t = 0; t < tile; ++t) {
        src[t] = (sorted[r0 + t]->second.*field).data();
      }
      for (uint32_t slot = 0; slot < num_tracked_; ++slot) {
        uint32_t* dst = column.data() + size_t{slot} * n + r0;
        for (size_t t = 0; t < tile; ++t) dst[t] = src[t][slot];
      }
    }
  };
  transpose(s.df, &Row::df);
  transpose(s.tc, &Row::tc);
  store_ = std::move(s);
  rows_ = {};
  compacted_ = true;
}

std::vector<uint64_t> MaterializedView::RowSignatures() const {
  assert(compacted_);
  const ColumnStore& s = store_;
  const size_t sig_words = (def_.num_columns() + 63) / 64;
  std::vector<uint64_t> sigs(s.rows * sig_words, 0);
  for (size_t c = 0; c < def_.num_columns(); ++c) {
    const uint64_t* bitmap = s.bitmaps.data() + c * s.words;
    for (size_t w = 0; w < s.words; ++w) {
      for (uint64_t bits = bitmap[w]; bits != 0; bits &= bits - 1) {
        size_t r = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        sigs[r * sig_words + c / 64] |= 1ULL << (c % 64);
      }
    }
  }
  return sigs;
}

void MaterializedView::ForEachRow(
    const std::function<void(TupleKey, Row)>& fn) const {
  const ColumnStore& s = store_;
  const size_t sig_words = (def_.num_columns() + 63) / 64;
  const std::vector<uint64_t> sigs = RowSignatures();
  auto gather = [&](const std::vector<uint32_t>& column, size_t r) {
    std::vector<uint32_t> cells;
    if (column.empty()) return cells;
    cells.resize(num_tracked_);
    for (uint32_t slot = 0; slot < num_tracked_; ++slot) {
      cells[slot] = column[slot * s.rows + r];
    }
    return cells;
  };
  for (size_t r = 0; r < s.rows; ++r) {
    const uint64_t* words = sigs.data() + r * sig_words;
    TupleKey key{BitSignature::FromWords({words, words + sig_words}),
                 s.buckets.empty() ? uint16_t{0} : s.buckets[r]};
    fn(std::move(key), Row{s.counts[r], s.sum_lens[r], gather(s.df, r),
                           gather(s.tc, r)});
  }
}

void MaterializedView::Uncompact() {
  if (!compacted_) return;
  rows_.reserve(store_.rows);
  ForEachRow([&](TupleKey key, Row row) {
    rows_.emplace(std::move(key), std::move(row));
  });
  store_ = ColumnStore();
  compacted_ = false;
}

uint64_t MaterializedView::MemoryBytes() const {
  if (compacted_) {
    const ColumnStore& s = store_;
    return s.bitmaps.capacity() * sizeof(uint64_t) +
           s.buckets.capacity() * sizeof(uint16_t) +
           (s.counts.capacity() + s.sum_lens.capacity()) * sizeof(uint64_t) +
           (s.df.capacity() + s.tc.capacity()) * sizeof(uint32_t);
  }
  uint64_t sig_bytes = BitSignature(def_.num_columns()).StorageBytes();
  uint64_t bytes = 0;
  for (const auto& [key, row] : rows_) {
    bytes += sizeof(TupleKey) + sig_bytes + sizeof(Row) +
             (row.df.capacity() + row.tc.capacity()) * sizeof(uint32_t) +
             sizeof(void*);  // hash-table node overhead, roughly
  }
  return bytes;
}

uint64_t MaterializedView::StorageBytes() const {
  if (NumTuples() == 0) return 0;
  uint64_t key_bytes = BitSignature(def_.num_columns()).StorageBytes();
  if (options_.year_bucket_size > 0) key_bytes += sizeof(uint16_t);
  uint64_t row_bytes = 2 * sizeof(uint64_t);
  if (options_.track_df) row_bytes += 4ULL * num_tracked_;
  if (options_.track_tc) row_bytes += 4ULL * num_tracked_;
  return NumTuples() * (key_bytes + row_bytes);
}

}  // namespace csr
