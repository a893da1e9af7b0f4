#include "index/intersection.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "index/simd_intersect.h"

namespace csr {

namespace {

/// 64 bitmap bits starting at bit `bit_off`; bits past the bitmap's end
/// read as zero. LSB of the result is bit `bit_off`.
inline uint64_t BitmapWindow(const uint8_t* bits, size_t nbytes,
                             uint64_t bit_off) {
  const size_t byte = bit_off >> 3;
  const unsigned sh = static_cast<unsigned>(bit_off & 7);
  if (byte >= nbytes) return 0;
  const size_t n = nbytes - byte;
  uint64_t lo = 0;
  uint8_t ex = 0;
  if constexpr (std::endian::native == std::endian::little) {
    if (n >= 9) {
      std::memcpy(&lo, bits + byte, 8);
      ex = bits[byte + 8];
    } else {
      std::memcpy(&lo, bits + byte, std::min<size_t>(n, 8));
    }
  } else {
    for (size_t k = 0; k < n && k < 8; ++k) {
      lo |= static_cast<uint64_t>(bits[byte + k]) << (8 * k);
    }
    if (n >= 9) ex = bits[byte + 8];
  }
  return sh == 0 ? lo
                 : (lo >> sh) | (static_cast<uint64_t>(ex) << (64 - sh));
}

/// Charges n ticks exactly as ScanGuard::Charge does and returns how many
/// were paid before a trip: n when none tripped, else the ticks charged
/// before the tripping one. A join probes exactly its paid docids, so the
/// matches it hands over after a trip are those of a docid prefix.
uint64_t ChargePaid(ScanGuard* guard, uint64_t n) {
  if (guard == nullptr) return n;
  const uint64_t before = guard->ticks();
  if (!guard->Charge(n)) return n;
  const uint64_t charged = guard->ticks() - before;
  return charged == 0 ? 0 : charged - 1;
}

/// One compressed side of a block kernel — the kernels' block decoder:
/// walks the block directory forward, materializing per block either the
/// bitmap view (zero-copy) or the decoded docid array — whichever the
/// probes need — and charging the block's decode bytes to CostCounters
/// exactly once however many probes land in it. Blocks load through
/// CompressedPostingList::LoadDocs/LoadTfs, as iterator loads do: they
/// consult the thread's DecodedBlockArena and count in blocks_decoded.
/// A side may walk one list across many joins (the conjunction's
/// windows), resuming at its current block.
class PairwiseSide {
 public:
  PairwiseSide(const CompressedPostingList* list, CostCounters* cost)
      : list_(list), cost_(cost) {}

  const CompressedPostingList& list() const { return *list_; }
  CostCounters* cost() const { return cost_; }
  bool exhausted() const { return cur_ >= list_->num_blocks(); }
  const CompressedPostingList::BlockMeta& meta() const {
    return list_->blocks()[cur_];
  }
  size_t current_block() const { return cur_; }

  void MoveTo(size_t next) {
    cur_ = next;
    tagged_ = false;
    view_ok_ = false;
    docs_ok_ = false;
    tfs_ok_ = false;
    charged_ = false;
    pos_ = 0;
  }

  /// Advances the current block until meta().max_doc >= d (gallop +
  /// binary search over the directory, skipped blocks never decoded).
  bool SeekBlock(DocId d) {
    auto blocks = list_->blocks();
    if (cur_ >= blocks.size()) return false;
    if (blocks[cur_].max_doc >= d) return true;
    size_t bound = 1;
    while (cur_ + bound < blocks.size() &&
           blocks[cur_ + bound].max_doc < d) {
      bound <<= 1;
    }
    size_t lo = cur_ + bound / 2 + 1;
    size_t hi = std::min(cur_ + bound + 1, blocks.size());
    auto it = std::lower_bound(
        blocks.begin() + lo, blocks.begin() + hi, d,
        [](const CompressedPostingList::BlockMeta& m, DocId t) {
          return m.max_doc < t;
        });
    size_t next = static_cast<size_t>(it - blocks.begin());
    if (cost_ != nullptr) {
      cost_->skips_taken++;
      if (next > cur_ + 1) cost_->blocks_skipped += next - cur_ - 1;
    }
    MoveTo(next);
    return cur_ < blocks.size();
  }

  bool IsBitmap() {
    if (!tagged_) {
      tagged_ = true;
      is_bitmap_ = list_->BlockCodecTag(cur_) == BlockCodec::kBitmap;
    }
    return is_bitmap_;
  }

  /// Zero-copy bitmap view of the current (bitmap) block.
  const BitmapBlockCodec::View& View() {
    if (!view_ok_) {
      view_ok_ = true;
      std::string_view raw = list_->BlockBytes(cur_);
      auto v = BitmapBlockCodec::MakeView(raw.substr(1), meta().base);
      // Self-built or checksum-verified bytes; a failure here means the
      // in-memory image was corrupted. Poison to an empty view.
      view_ = v.ok() ? v.value() : BitmapBlockCodec::View{};
      ChargeOnce(1 + 5 + (static_cast<size_t>(view_.range) + 7) / 8);
    }
    return view_;
  }

  /// Decoded docids of the current block (any representation).
  std::span<const DocId> Docs() {
    if (!docs_ok_) {
      docs_ok_ = true;
      docs_ = list_->LoadDocs(cur_, own_docs_, &tf_offset_);
      if (!docs_.empty()) ChargeOnce(1 + tf_offset_);
    }
    return docs_;
  }

  /// Decoded tfs of the current block, in docid order (after Docs()).
  std::span<const uint32_t> Tfs() {
    if (!tfs_ok_) {
      tfs_ok_ = true;
      tfs_ = list_->LoadTfs(cur_, tf_offset_, own_tfs_);
      if (!tfs_.empty() && cost_ != nullptr) {
        cost_->bytes_touched +=
            list_->BlockBytes(cur_).size() - (1 + tf_offset_);
      }
    }
    return tfs_;
  }

  size_t& pos() { return pos_; }

  /// Output buffer for SimdIntersect over the current block: room for
  /// every docid the block holds, which bounds any join with it.
  DocId* Matches() {
    if (matches_.size() < meta().count) matches_.resize(meta().count);
    return matches_.data();
  }

  /// Membership probe for d in the current block; d must not exceed
  /// meta().max_doc. Probes are monotone within a block, advancing an
  /// internal cursor by linear (merge) or galloping steps.
  bool Contains(DocId d, bool merge_probe) {
    const auto& m = meta();
    // In the gap before this block. Block 0 may legitimately start AT its
    // base (docid 0, base 0); every later block's docs are strictly > base.
    if (d < m.base || (d == m.base && cur_ != 0)) return false;
    if (cost_ != nullptr) cost_->entries_scanned++;
    if (IsBitmap()) return View().Test(d);
    std::span<const DocId> docs = Docs();
    if (merge_probe) {
      while (pos_ < docs.size() && docs[pos_] < d) ++pos_;
    } else {
      size_t bound = 1;
      while (pos_ + bound < docs.size() && docs[pos_ + bound] < d) {
        bound <<= 1;
      }
      size_t lo = pos_ + bound / 2;
      size_t hi = std::min(pos_ + bound + 1, docs.size());
      pos_ = static_cast<size_t>(
          std::lower_bound(docs.begin() + lo, docs.begin() + hi, d) -
          docs.begin());
    }
    return pos_ < docs.size() && docs[pos_] == d;
  }

 private:
  void ChargeOnce(size_t bytes) {
    if (charged_ || cost_ == nullptr) return;
    charged_ = true;
    cost_->segments_touched++;
    cost_->bytes_touched += bytes;
  }

  const CompressedPostingList* list_;
  CostCounters* cost_;
  size_t cur_ = 0;
  bool tagged_ = false;
  bool is_bitmap_ = false;
  bool view_ok_ = false;
  bool docs_ok_ = false;
  bool tfs_ok_ = false;
  bool charged_ = false;
  BitmapBlockCodec::View view_;
  // The current block's sections: views of own_* or of arena entries.
  std::span<const DocId> docs_;
  std::span<const uint32_t> tfs_;
  std::vector<DocId> own_docs_;
  std::vector<uint32_t> own_tfs_;
  std::vector<DocId> matches_;
  size_t tf_offset_ = 0;
  size_t pos_ = 0;
};

/// The pairwise loop: for each driver block, windows of candidate docids
/// are intersected against the probe side's blocks. Sink sees whole
/// 64-bit AND words (Word), single matches (Doc) or runs of matches
/// (Docs), always in increasing docid order.
///
/// Array×array windows dispatch to the SIMD kernel family
/// (simd_intersect.h): the overlapping slices of both decoded blocks are
/// handed to SimdIntersect, which picks pairwise-shuffle / wide-probe /
/// SIMD-gallop from the window length ratio and the active dispatch
/// level. Cost parity with the per-value probe loop is kept analytically:
/// the probe side is charged one entries_scanned per driver value at or
/// above the probe block's first possible docid — exactly what
/// PairwiseSide::Contains charged, and independent of the dispatch level,
/// so counters stay bit-identical under CSR_FORCE_SCALAR differentials.
///
/// A non-null `guard` is charged one tick per driver docid no greater
/// than the probe list's last docid, block by block before the block is
/// probed; when it trips, the block's paid docids are probed and the scan
/// stops.
///
/// Runs driver blocks [from, to) of side `a` against side `b`; both sides
/// resume where an earlier call left them, so consecutive ranges walk the
/// lists once. Returns false once no later driver block can match: the
/// probe side is exhausted or the guard tripped.
template <typename Sink>
bool PairwiseBlocks(PairwiseSide& a, PairwiseSide& b, size_t from, size_t to,
                    bool merge_probe, ScanGuard* guard,
                    std::vector<DocId>& matches, Sink& sink) {
  CostCounters* drv_cost = a.cost();
  CostCounters* oth_cost = b.cost();
  const DocId oth_last = b.list().blocks().back().max_doc;
  for (size_t db = from; db < to; ++db) {
    a.MoveTo(db);
    const auto& m = a.meta();
    DocId stop_at = kInvalidDocId;  // the last paid docid after a trip
    if (guard != nullptr) {
      uint64_t ticks = m.count;
      if (m.max_doc > oth_last) {
        std::span<const DocId> docs = a.Docs();
        ticks = static_cast<uint64_t>(
            std::upper_bound(docs.begin(), docs.end(), oth_last) -
            docs.begin());
      }
      const uint64_t paid = ChargePaid(guard, ticks);
      if (paid < ticks) {
        if (paid == 0) return false;
        stop_at = a.Docs()[paid - 1];
      }
    }
    // Candidates live in [base, max_doc] for the very first block (docid
    // 0 can equal base 0) and (base, max_doc] afterwards; after a trip,
    // only up to the last paid docid.
    const DocId max_doc = std::min(m.max_doc, stop_at);
    uint64_t next_d = static_cast<uint64_t>(m.base) + (db == 0 ? 0 : 1);
    bool drv_block_touched = false;
    while (next_d <= max_doc) {
      if (!b.SeekBlock(static_cast<DocId>(next_d))) return false;
      const auto& om = b.meta();
      if (om.base > max_doc) break;  // no probe docs within this block
      const DocId hi = std::min(max_doc, om.max_doc);
      if (a.IsBitmap() && b.IsBitmap()) {
        const BitmapBlockCodec::View& va = a.View();
        const BitmapBlockCodec::View& vb = b.View();
        drv_block_touched = true;
        const size_t na = (static_cast<size_t>(va.range) + 7) / 8;
        const size_t nb = (static_cast<size_t>(vb.range) + 7) / 8;
        uint64_t lo = std::max({next_d, static_cast<uint64_t>(va.first),
                                static_cast<uint64_t>(vb.first)});
        for (uint64_t chunk = lo; chunk <= hi; chunk += 64) {
          uint64_t w = BitmapWindow(va.bits, na, chunk - va.first) &
                       BitmapWindow(vb.bits, nb, chunk - vb.first);
          const uint64_t span = hi - chunk;  // inclusive span minus one
          if (span < 63) w &= (1ull << (span + 1)) - 1;
          if (w != 0) sink.Word(static_cast<DocId>(chunk), w);
        }
        if (oth_cost != nullptr) {
          oth_cost->entries_scanned += (hi - lo) / 64 + 1;
        }
      } else if (b.IsBitmap()) {
        std::span<const DocId> docs = a.Docs();
        drv_block_touched = true;
        size_t& pos = a.pos();
        while (pos < docs.size() && docs[pos] < next_d) ++pos;
        for (; pos < docs.size() && docs[pos] <= hi; ++pos) {
          if (b.Contains(docs[pos], merge_probe)) sink.Doc(docs[pos]);
        }
        if (pos >= docs.size()) break;  // driver block exhausted
        if (docs[pos] > hi) {
          // Gallop straight to the next driver candidate: SeekBlock can
          // then leap candidate-free probe blocks (charged to
          // blocks_skipped) instead of walking them one by one.
          next_d = docs[pos];
          continue;
        }
      } else {
        std::span<const DocId> docs = a.Docs();
        drv_block_touched = true;
        size_t& pos = a.pos();
        while (pos < docs.size() && docs[pos] < next_d) ++pos;
        // Driver window: candidates in [next_d, hi].
        const size_t wend = static_cast<size_t>(
            std::upper_bound(docs.begin() + pos, docs.end(), hi) -
            docs.begin());
        if (wend > pos) {
          // Values below the probe block's first possible docid sit in the
          // inter-block gap; Contains never charged (or decoded) for them.
          // Block 0 may start AT its base, later blocks strictly above it.
          const DocId min_in =
              om.base + (b.current_block() == 0 ? 0 : 1);
          const size_t in_from = static_cast<size_t>(
              std::lower_bound(docs.begin() + pos, docs.begin() + wend,
                               min_in) -
              docs.begin());
          if (in_from < wend) {
            if (oth_cost != nullptr) {
              oth_cost->entries_scanned += wend - in_from;
            }
            std::span<const DocId> bdocs = b.Docs();
            size_t& bpos = b.pos();
            const size_t bstart = static_cast<size_t>(
                std::lower_bound(bdocs.begin() + bpos, bdocs.end(),
                                 docs[in_from]) -
                bdocs.begin());
            const size_t bend = static_cast<size_t>(
                std::upper_bound(bdocs.begin() + bstart, bdocs.end(), hi) -
                bdocs.begin());
            if (bend > bstart) {
              matches.resize(std::min(wend - in_from, bend - bstart));
              const size_t nm = SimdIntersect(
                  docs.data() + in_from, wend - in_from,
                  bdocs.data() + bstart, bend - bstart, matches.data());
              sink.Docs(std::span<const DocId>(matches.data(), nm));
            }
            // All docids <= hi in this probe block are consumed; future
            // probes (same block, later windows) are strictly above hi.
            bpos = bend;
          }
        }
        a.pos() = wend;
        if (wend >= docs.size()) break;  // driver block exhausted
        if (docs[wend] > hi) {
          // Gallop straight to the next driver candidate: SeekBlock can
          // then leap candidate-free probe blocks (charged to
          // blocks_skipped) instead of walking them one by one.
          next_d = docs[wend];
          continue;
        }
      }
      if (hi >= max_doc) break;
      next_d = static_cast<uint64_t>(hi) + 1;
    }
    if (!drv_block_touched && drv_cost != nullptr) {
      drv_cost->blocks_skipped++;  // bypassed without decoding
    }
    if (b.exhausted() || stop_at != kInvalidDocId) return false;
  }
  return true;
}

struct CountSink {
  uint64_t n = 0;
  void Doc(DocId) { ++n; }
  void Docs(std::span<const DocId> docs) { n += docs.size(); }
  void Word(DocId, uint64_t w) { n += static_cast<uint64_t>(std::popcount(w)); }
};

struct BatchSink {
  explicit BatchSink(const std::function<void(std::span<const DocId>)>* f)
      : fn(f) {}
  const std::function<void(std::span<const DocId>)>* fn;
  std::array<DocId, kPairwiseBatch> buf;
  size_t len = 0;
  uint64_t n = 0;
  void Doc(DocId d) {
    buf[len++] = d;
    if (len == buf.size()) Flush();
  }
  void Docs(std::span<const DocId> docs) {
    for (DocId d : docs) Doc(d);
  }
  void Word(DocId first, uint64_t w) {
    while (w != 0) {
      unsigned bit = static_cast<unsigned>(std::countr_zero(w));
      Doc(first + bit);
      w &= w - 1;
    }
  }
  void Flush() {
    if (len == 0) return;
    n += len;
    (*fn)(std::span<const DocId>(buf.data(), len));
    len = 0;
  }
};

/// Appends every match to a vector.
struct VectorSink {
  std::vector<DocId>* out;
  void Doc(DocId d) { out->push_back(d); }
  void Docs(std::span<const DocId> docs) {
    out->insert(out->end(), docs.begin(), docs.end());
  }
  void Word(DocId first, uint64_t w) {
    for (; w != 0; w &= w - 1) {
      out->push_back(first + static_cast<DocId>(std::countr_zero(w)));
    }
  }
};

bool PairwiseMergeProbe(const CompressedPostingList& drv,
                        const CompressedPostingList& oth) {
  return ChooseIntersectStrategy(drv.size(), oth.size(),
                                 drv.has_bitmap_blocks(),
                                 oth.has_bitmap_blocks()) ==
         IntersectStrategy::kMerge;
}

inline DocId DocOf(const Posting& p) { return p.doc; }
inline DocId DocOf(DocId d) { return d; }

/// The first index in [from, run.size()) whose docid exceeds `d`, by
/// galloping then binary search.
size_t RunUpperBound(std::span<const DocId> run, size_t from, DocId d) {
  size_t bound = 1;
  while (from + bound < run.size() && run[from + bound] <= d) bound <<= 1;
  auto it = std::upper_bound(run.begin() + from + bound / 2,
                             run.begin() + std::min(from + bound, run.size()),
                             d);
  return static_cast<size_t>(it - run.begin());
}

/// What a run-with-list block walk needs of a decoded block: nothing
/// beyond the matches (a count, or the docids), or the matches' tfs.
enum class JoinOut { kCount, kTf, kDocs };

/// The block walk behind JoinRunWithList, SemiJoinRunWithList and the
/// Conjunction's semijoin steps. The run is cut into windows, one per
/// list block its docids fall in; blocks no window meets are skipped
/// undecoded. A window meets its block through SimdIntersect, which
/// writes the matches into the side's buffer (or, for kCount and kDocs
/// when the block is a bitmap no more than half the window's size, by
/// O(1) bit tests); on_matches(side, matches) then sees each non-empty
/// run of matches, in increasing order, with the block still current, so
/// kTf callers may read side.Docs() and side.Tfs(). Costs are charged
/// from window and block sizes, never from the kernel: one
/// entries_scanned per window docid, plus the block's size when it is
/// decoded. Guard ticks follow the join tick rule (intersection.h). The
/// side may resume where an earlier walk left it only when the run
/// drives, as it always does inside a Conjunction.
template <JoinOut kOut, typename OnMatches>
RunJoinResult JoinRunImpl(std::span<const DocId> run, PairwiseSide& side,
                          ScanGuard* guard, OnMatches&& on_matches) {
  const CompressedPostingList& list = side.list();
  CostCounters* cost = side.cost();
  RunJoinResult out;
  if (run.empty() || list.empty()) return out;
  const auto blocks = list.blocks();
  const bool run_drives = run.size() <= list.size();
  const DocId run_last = run.back();
  auto charge = [&](uint64_t n) {
    if (guard == nullptr || !guard->Charge(n)) return false;
    out.aborted = true;
    return true;
  };
  // When the list drives, every one of its postings up to run_last ticks:
  // blocks before `ticked` are charged as the walk passes them.
  size_t ticked = 0;
  auto charge_blocks_before = [&](size_t b) {
    uint64_t n = 0;
    for (; ticked < b; ++ticked) n += blocks[ticked].count;
    return charge(n);
  };
  size_t i = 0;
  while (i < run.size()) {
    if (!side.SeekBlock(run[i])) {
      // The rest of the run lies past the list, whose unticked postings
      // all precede run_last.
      if (!run_drives) charge_blocks_before(blocks.size());
      break;
    }
    const size_t b = side.current_block();
    const auto& meta = side.meta();
    const size_t end = RunUpperBound(run, i, meta.max_doc);
    std::span<const DocId> window = run.subspan(i, end - i);
    i = end;
    if (run_drives) {
      // After a trip, the window's paid docids are still probed.
      const uint64_t paid = ChargePaid(guard, window.size());
      if (paid < window.size()) {
        out.aborted = true;
        if (paid == 0) return out;
        window = window.first(paid);
        i = run.size();
      }
    } else {
      // Passed blocks hold no run docid, so a trip there probes nothing.
      if (charge_blocks_before(b)) return out;
      ticked = b + 1;
      uint64_t n = meta.count;
      if (meta.max_doc > run_last) {
        std::span<const DocId> docs = side.Docs();
        n = static_cast<uint64_t>(
            std::upper_bound(docs.begin(), docs.end(), run_last) -
            docs.begin());
      }
      const uint64_t paid = ChargePaid(guard, n);
      if (paid < n) {
        out.aborted = true;
        if (paid == 0) return out;
        // Probe the run docids up to the block's last paid posting.
        window = window.first(
            RunUpperBound(window, 0, side.Docs()[paid - 1]));
        i = run.size();
      }
    }
    if (cost != nullptr) cost->entries_scanned += window.size();
    size_t nm = 0;
    DocId* matches = side.Matches();
    if (kOut != JoinOut::kTf && side.IsBitmap() &&
        window.size() <= 2 * meta.count) {
      const BitmapBlockCodec::View& view = side.View();
      for (DocId d : window) {
        if (view.Test(d)) matches[nm++] = d;
      }
    } else {
      std::span<const DocId> docs = side.Docs();
      if (cost != nullptr) cost->entries_scanned += docs.size();
      nm = SimdIntersect(window.data(), window.size(), docs.data(),
                         docs.size(), matches);
    }
    out.matches += nm;
    if (kOut != JoinOut::kCount && nm > 0) {
      on_matches(side, std::span<const DocId>(matches, nm));
    }
  }
  return out;
}

/// The first index in [from, v.size()) whose docid is >= d, by galloping
/// from `from` then binary search; adds the docids compared to *probes.
template <typename T>
size_t GallopLowerBound(std::span<const T> v, size_t from, DocId d,
                        uint64_t* probes) {
  ++*probes;
  if (from >= v.size() || DocOf(v[from]) >= d) return from;
  size_t bound = 1;  // v[from + bound / 2] < d
  while (from + bound < v.size() && DocOf(v[from + bound]) < d) {
    bound <<= 1;
    ++*probes;
  }
  size_t lo = from + bound / 2 + 1;
  size_t hi = std::min(from + bound, v.size());
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*probes;
    if (DocOf(v[mid]) < d) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The plain-list form of the join tick rule: each docid of `drv` up to
/// `oth`'s last docid is galloped to in `oth` from position `j` on, and
/// the guard is charged for up to one segment of such docids
/// (PostingList::kDefaultSegmentSize) before they are probed. Calls
/// on_match(i, j) for every drv[i] == oth[j], in increasing order; after
/// a trip, the paid docids are still probed and the join stops. `j` is
/// left where a later, higher `drv` may resume. Returns the entries read
/// on both sides (entries_scanned): each `drv` docid probed, and each
/// docid of `oth` compared with one.
template <typename Oth, typename OnMatch>
uint64_t SearchJoin(std::span<const DocId> drv, std::span<const Oth> oth,
                    ScanGuard* guard, size_t& j, OnMatch&& on_match) {
  uint64_t probes = 0;
  if (drv.empty() || oth.empty()) return probes;
  const size_t n = static_cast<size_t>(
      std::upper_bound(drv.begin(), drv.end(), DocOf(oth.back())) -
      drv.begin());
  constexpr size_t kChunk = PostingList::kDefaultSegmentSize;
  for (size_t from = 0; from < n; from += kChunk) {
    const size_t chunk = std::min(n - from, kChunk);
    const size_t paid = ChargePaid(guard, chunk);
    probes += paid;
    for (size_t i = from; i < from + paid; ++i) {
      j = GallopLowerBound(oth, j, drv[i], &probes);
      if (DocOf(oth[j]) == drv[i]) on_match(i, j);
    }
    if (paid < chunk) break;
  }
  return probes;
}

}  // namespace

uint64_t CountPairwiseIntersection(const CompressedPostingList& a,
                                   const CompressedPostingList& b,
                                   CostCounters* cost_a, CostCounters* cost_b,
                                   ScanGuard* guard) {
  const PostingRef lists[] = {{nullptr, &a, cost_a}, {nullptr, &b, cost_b}};
  return Conjunction(lists, guard).Count();
}

uint64_t ScanPairwiseIntersection(const CompressedPostingList& a,
                                  const CompressedPostingList& b,
                                  CostCounters* cost_a, CostCounters* cost_b,
                                  const std::function<void(DocId)>& on_match) {
  return ScanPairwiseIntersectionBatches(
      a, b, cost_a, cost_b, [&on_match](std::span<const DocId> docs) {
        for (DocId d : docs) on_match(d);
      });
}

uint64_t ScanPairwiseIntersectionBatches(
    const CompressedPostingList& a, const CompressedPostingList& b,
    CostCounters* cost_a, CostCounters* cost_b,
    const std::function<void(std::span<const DocId>)>& on_batch,
    ScanGuard* guard) {
  const PostingRef lists[] = {{nullptr, &a, cost_a}, {nullptr, &b, cost_b}};
  Conjunction conj(lists, guard);
  uint64_t n = 0;
  for (std::vector<DocId> docs; conj.Next(docs); docs.clear()) {
    for (size_t i = 0; i < docs.size(); i += kPairwiseBatch) {
      on_batch(std::span<const DocId>(docs).subspan(
          i, std::min(kPairwiseBatch, docs.size() - i)));
    }
    n += docs.size();
  }
  return n;
}

RunJoinResult JoinRunWithList(std::span<const DocId> run,
                              const CompressedPostingList& list, bool with_tf,
                              CostCounters* cost, ScanGuard* guard) {
  PairwiseSide side(&list, cost);
  if (!with_tf) {
    return JoinRunImpl<JoinOut::kCount>(
        run, side, guard, [](PairwiseSide&, std::span<const DocId>) {});
  }
  uint64_t tf_sum = 0;
  RunJoinResult out = JoinRunImpl<JoinOut::kTf>(
      run, side, guard,
      [&tf_sum](PairwiseSide& s, std::span<const DocId> matches) {
        // The matches' positions, by one forward pass over the block.
        std::span<const DocId> docs = s.Docs();
        std::span<const uint32_t> tfs = s.Tfs();
        size_t j = 0;
        for (DocId d : matches) {
          while (docs[j] < d) ++j;
          if (j < tfs.size()) tf_sum += tfs[j];
          ++j;
        }
      });
  out.tf_sum = tf_sum;
  return out;
}

RunJoinResult SemiJoinRunWithList(
    std::span<const DocId> run, const CompressedPostingList& list,
    CostCounters* cost, ScanGuard* guard,
    const std::function<void(std::span<const DocId>)>& on_batch) {
  PairwiseSide side(&list, cost);
  BatchSink sink(&on_batch);
  RunJoinResult out = JoinRunImpl<JoinOut::kDocs>(
      run, side, guard,
      [&sink](PairwiseSide&, std::span<const DocId> matches) {
        sink.Docs(matches);
      });
  sink.Flush();
  return out;
}

uint64_t CountCompressedIntersection(const CompressedPostingList& a,
                                     const CompressedPostingList& b,
                                     CostCounters* cost) {
  return CountPairwiseIntersection(a, b, cost, cost);
}

// -- Conjunction ------------------------------------------------------------

struct Conjunction::List {
  explicit List(const PostingRef& r)
      : ref(r), side(r.packed, r.cost), tf_side(r.packed, r.cost) {}

  DocId last() const {
    return ref.plain != nullptr    ? ref.plain->postings().back().doc
           : ref.packed != nullptr ? ref.packed->blocks().back().max_doc
                                   : ref.run.back();
  }

  PostingRef ref;
  PairwiseSide side;     // compressed: the joins' block cursor
  PairwiseSide tf_side;  // compressed: Tfs's block cursor
  size_t pos = 0;        // plain or run: where the next join's search starts
  size_t tf_pos = 0;     // plain: where the next Tfs search starts
};

Conjunction::Conjunction(std::span<const PostingRef> lists,
                         ScanGuard* guard)
    : guard_(guard) {
  done_ = lists.empty() || std::any_of(lists.begin(), lists.end(),
                                       [](const PostingRef& l) {
                                         return l.size() == 0;
                                       });
  if (done_) return;
  std::vector<size_t> order(lists.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lists[a].size() < lists[b].size();
  });
  lists_.reserve(lists.size());
  caller_.resize(lists.size());
  for (size_t k = 0; k < order.size(); ++k) {
    lists_.emplace_back(lists[order[k]]);
    caller_[order[k]] = k;
  }
  if (lists_.size() >= 2) {
    second_last_ = lists_[1].last();
    if (lists_[0].ref.packed != nullptr && lists_[1].ref.packed != nullptr) {
      merge_probe_ =
          PairwiseMergeProbe(*lists_[0].ref.packed, *lists_[1].ref.packed);
    }
  }
}

Conjunction::~Conjunction() = default;

template <typename Sink>
void Conjunction::Join(std::span<const DocId> run, List& list,
                       ScanGuard* guard, Sink& sink) {
  if (list.ref.packed != nullptr) {
    if constexpr (std::is_same_v<Sink, CountSink>) {
      sink.n += JoinRunImpl<JoinOut::kCount>(
                    run, list.side, guard,
                    [](PairwiseSide&, std::span<const DocId>) {})
                    .matches;
    } else {
      JoinRunImpl<JoinOut::kDocs>(
          run, list.side, guard,
          [&sink](PairwiseSide&, std::span<const DocId> matches) {
            sink.Docs(matches);
          });
    }
    return;
  }
  auto search = [&](auto oth) {
    return SearchJoin(run, oth, guard, list.pos,
                      [&](size_t i, size_t) { sink.Doc(run[i]); });
  };
  const uint64_t probes = list.ref.plain != nullptr
                              ? search(list.ref.plain->postings())
                              : search(list.ref.run);
  if (list.ref.cost != nullptr) list.ref.cost->entries_scanned += probes;
}

template <typename Sink>
void Conjunction::FirstStep(Sink& sink) {
  List& drv = lists_[0];
  const bool alone = lists_.size() == 1;
  std::span<const DocId> window;
  if (drv.ref.packed == nullptr) {
    const size_t size = drv.ref.size();
    const size_t from = next_;
    next_ = std::min(size, from + kWindow);
    if (drv.ref.plain != nullptr) {
      const std::span<const Posting> postings = drv.ref.plain->postings();
      done_ = next_ == size || (!alone && postings[next_].doc > second_last_);
      scratch_.clear();
      for (size_t i = from; i < next_; ++i) scratch_.push_back(postings[i].doc);
      window = scratch_;
    } else {
      done_ = next_ == size || (!alone && drv.ref.run[next_] > second_last_);
      window = drv.ref.run.subspan(from, next_ - from);
    }
  } else {
    const CompressedPostingList& list = *drv.ref.packed;
    const size_t from = next_;
    next_ = std::min(list.num_blocks(),
                     from + std::max<size_t>(1, kWindow / list.block_size()));
    // Every docid of a later block exceeds its base.
    done_ = next_ == list.num_blocks() ||
            (!alone && list.blocks()[next_].base >= second_last_);
    if (!alone && lists_[1].ref.packed != nullptr) {
      if (!PairwiseBlocks(drv.side, lists_[1].side, from, next_, merge_probe_,
                          guard_, scratch_, sink)) {
        done_ = true;
      }
      return;
    }
    scratch_.clear();
    for (size_t b = from; b < next_; ++b) {
      drv.side.MoveTo(b);
      std::span<const DocId> docs = drv.side.Docs();
      scratch_.insert(scratch_.end(), docs.begin(), docs.end());
    }
    window = scratch_;
  }
  if (!alone) {
    Join(window, lists_[1], guard_, sink);
    return;
  }
  // One list is its own conjunction: walk it, one tick per posting, a
  // segment's worth at a time.
  if (drv.ref.cost != nullptr) drv.ref.cost->entries_scanned += window.size();
  for (size_t from = 0; from < window.size();
       from += PostingList::kDefaultSegmentSize) {
    const size_t n = std::min(window.size() - from,
                              size_t{PostingList::kDefaultSegmentSize});
    const size_t paid = ChargePaid(guard_, n);
    sink.Docs(window.subspan(from, paid));
    if (paid < n) return;
  }
}

template <typename Sink>
bool Conjunction::Window(Sink& sink) {
  if (done_) return false;
  if (lists_.size() <= 2) {
    FirstStep(sink);
  } else {
    run_.clear();
    VectorSink to_run{&run_};
    FirstStep(to_run);
    // The later steps tick nothing: each run docid is a paid docid of the
    // shortest list, so they finish the window even after a trip.
    for (size_t s = 2; s < lists_.size() && !run_.empty(); ++s) {
      if (s + 1 == lists_.size()) {
        Join(std::span<const DocId>(run_), lists_[s], nullptr, sink);
        break;
      }
      next_run_.clear();
      VectorSink to_next{&next_run_};
      Join(std::span<const DocId>(run_), lists_[s], nullptr, to_next);
      run_.swap(next_run_);
    }
  }
  if (guard_ != nullptr && guard_->tripped()) {
    aborted_ = true;
    done_ = true;
  }
  return true;
}

bool Conjunction::Next(std::vector<DocId>& out) {
  VectorSink sink{&out};
  return Window(sink);
}

uint64_t Conjunction::Count() {
  CountSink sink;
  while (Window(sink)) {
  }
  return sink.n;
}

void Conjunction::Tfs(size_t i, std::span<const DocId> docs, uint32_t* out,
                      size_t stride) {
  List& list = lists_[caller_[i]];
  if (list.ref.packed == nullptr && list.ref.plain == nullptr) {
    // A docid run: every member's tf reads 1.
    for (size_t j = 0; j < docs.size(); ++j) out[j * stride] = 1;
    return;
  }
  if (list.ref.plain != nullptr) {
    const std::span<const Posting> postings = list.ref.plain->postings();
    uint64_t probes = 0;  // a tf read, not a join: charged nothing
    for (size_t j = 0; j < docs.size(); ++j) {
      list.tf_pos = GallopLowerBound(postings, list.tf_pos, docs[j], &probes);
      out[j * stride] =
          list.tf_pos < postings.size() ? postings[list.tf_pos].tf : 0;
    }
    return;
  }
  PairwiseSide& side = list.tf_side;
  for (size_t j = 0; j < docs.size(); ++j) {
    if (!side.SeekBlock(docs[j])) {
      out[j * stride] = 0;  // not a survivor: past the list
      continue;
    }
    std::span<const DocId> block = side.Docs();
    size_t& pos = side.pos();
    pos = static_cast<size_t>(
        std::lower_bound(block.begin() + pos, block.end(), docs[j]) -
        block.begin());
    std::span<const uint32_t> tfs = side.Tfs();
    out[j * stride] = pos < tfs.size() ? tfs[pos] : 0;
  }
}

std::string ConjunctionPlan(size_t num_lists) {
  if (num_lists <= 1) return "walk";
  std::string plan = "pairwise";
  if (num_lists > 2) plan += "+semijoin*" + std::to_string(num_lists - 2);
  return plan;
}

uint64_t CountIntersection(std::span<const PostingRef> lists,
                           ScanGuard* guard) {
  return Conjunction(lists, guard).Count();
}

uint64_t CountIntersection(std::span<const PostingList* const> lists,
                           CostCounters* cost) {
  std::vector<PostingRef> refs;
  for (const PostingList* l : lists) refs.push_back({l, nullptr, cost});
  return CountIntersection(refs);
}

void AttrIntersectionCostDelta(TraceSpan* span, const CostCounters& after,
                               const CostCounters& before) {
  if (span == nullptr) return;
  span->Attr("entries_scanned", after.entries_scanned - before.entries_scanned);
  span->Attr("segments_touched",
             after.segments_touched - before.segments_touched);
  span->Attr("skips_taken", after.skips_taken - before.skips_taken);
  span->Attr("bytes_touched", after.bytes_touched - before.bytes_touched);
  span->Attr("blocks_skipped", after.blocks_skipped - before.blocks_skipped);
}

}  // namespace csr
