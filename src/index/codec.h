#ifndef CSR_INDEX_CODEC_H_
#define CSR_INDEX_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "index/cost_model.h"
#include "index/posting_list.h"
#include "util/result.h"
#include "util/types.h"

namespace csr {

/// Appends the varint encoding of v (1-5 bytes) to out.
void PutVarint32(std::string& out, uint32_t v);

/// Decodes a varint starting at p; returns the position after it, or
/// nullptr on truncated/overlong input. On success *v holds the value.
const uint8_t* GetVarint32(const uint8_t* p, const uint8_t* end, uint32_t* v);

/// Block codec for postings: docids are delta-encoded then varint-packed,
/// followed by varint tfs. The standard trick (RocksDB key prefixes, Lucene
/// postings) that turns sorted 8-byte postings into ~2 bytes each.
class PostingBlockCodec {
 public:
  /// Encodes postings (sorted by doc) relative to `base` (the docid before
  /// the block; use 0 for the first block — docids are >= base).
  static void Encode(std::span<const Posting> postings, DocId base,
                     std::string& out);

  /// Decodes exactly `count` postings. Returns OutOfRange on truncation,
  /// InvalidArgument on corrupt (non-increasing) docids.
  static Status Decode(std::string_view in, DocId base, size_t count,
                       std::vector<Posting>& out);

  /// Decodes only the docid section (what intersections touch); sets
  /// *tf_offset to the byte offset of the tf section for DecodeTfs.
  static Status DecodeDocs(std::string_view in, DocId base, size_t count,
                           std::vector<DocId>& docs, size_t* tf_offset);
  static Status DecodeTfs(std::string_view in, size_t tf_offset, size_t count,
                          std::vector<uint32_t>& tfs);
};

/// Frame-of-Reference block codec: every docid delta (first delta = doc0 -
/// base, then doc[i] - doc[i-1] - 1) and every tf is stored at the block's
/// maximum bit width, so decoding is a branch-light fixed-width unpack —
/// the layout SIMD bit-unpacking kernels assume, implemented here with a
/// portable scalar kernel.
///
/// Block layout:
///   u8  doc_bits   (0..32; bit width of the docid deltas)
///   u8  tf_bits    (0..32; bit width of the tfs)
///   ceil(count * doc_bits / 8) bytes of LSB-first packed deltas
///   ceil(count * tf_bits / 8)  bytes of LSB-first packed tfs
class ForBlockCodec {
 public:
  static void Encode(std::span<const Posting> postings, DocId base,
                     std::string& out);

  /// Decodes exactly `count` postings. OutOfRange on truncation,
  /// InvalidArgument on corrupt widths or docid overflow. Never reads
  /// outside `in`.
  static Status Decode(std::string_view in, DocId base, size_t count,
                       std::vector<Posting>& out);

  /// Split decode (see PostingBlockCodec): docids only, then tfs on
  /// demand. The fixed widths make the tf offset analytic — 2 header
  /// bytes plus the packed docid section.
  static Status DecodeDocs(std::string_view in, DocId base, size_t count,
                           std::vector<DocId>& docs, size_t* tf_offset);
  static Status DecodeTfs(std::string_view in, size_t tf_offset, size_t count,
                          std::vector<uint32_t>& tfs);

  /// Exact encoded size in bytes, without encoding (auto-selection probe).
  static size_t EncodedSize(std::span<const Posting> postings, DocId base);

  /// Fixed-width kernels, exposed for tests and benches. PackBits appends
  /// `count` values at `bits` width (LSB-first) to out; UnpackBits reads
  /// them back, returning OutOfRange when `avail` bytes cannot hold them.
  /// UnpackBits validates, then runs the SIMD-dispatched kernel
  /// (simd_unpack.h) — scalar, SSE2, or AVX2, selected once at startup.
  static void PackBits(const uint32_t* values, size_t count, uint32_t bits,
                       std::string& out);
  static Status UnpackBits(const uint8_t* p, size_t avail, size_t count,
                           uint32_t bits, uint32_t* out);
};

/// Bitmap block container: when a block's doc range is dense enough that
/// one bit per candidate docid beats one packed delta per posting, the
/// docid section becomes a plain bitset. Membership probes are O(1) and
/// intersection against another bitmap is a word-wise AND — the kernels
/// intersection.cc uses for dense∧dense and dense∧sparse block pairs.
///
/// Block layout (after the 1-byte codec tag):
///   u8  tf_bits                  (0..32; bit width of the tfs)
///   u32 range                    (LE; bitmap bit count, see below)
///   ceil(range / 8) bitmap bytes (LSB-first; bit j set <=> docid
///                                 base + 1 + j is present)
///   ceil(count * tf_bits / 8) bytes of LSB-first packed tfs (doc order)
///
/// `range` = last docid - base, so the bitmap covers (base, last] with no
/// slack. Selection (kAuto) is purely by encoded size, which makes the
/// break-even analytic: the bitmap wins when the block density
/// count/range exceeds roughly doc_bits/8 bits-per-slot of FOR.
class BitmapBlockCodec {
 public:
  /// Densest range the codec will bitmap (guards pathological forced
  /// encodes; kAuto is additionally size-gated so it never gets close).
  static constexpr uint32_t kMaxRange = 1u << 20;

  /// SIZE_MAX when the block cannot be bitmapped (empty or range beyond
  /// kMaxRange); otherwise the exact encoded body size for auto-selection.
  static size_t EncodedSize(std::span<const Posting> postings, DocId base);

  static void Encode(std::span<const Posting> postings, DocId base,
                     std::string& out);

  /// Decodes exactly `count` postings. OutOfRange on truncation;
  /// InvalidArgument on corrupt range, set bits past the range, a
  /// population disagreeing with `count`, or docid overflow.
  static Status Decode(std::string_view in, DocId base, size_t count,
                       std::vector<Posting>& out);
  static Status DecodeDocs(std::string_view in, DocId base, size_t count,
                           std::vector<DocId>& docs, size_t* tf_offset);
  static Status DecodeTfs(std::string_view in, size_t tf_offset,
                          size_t count, std::vector<uint32_t>& tfs);

  /// Zero-copy view of the bitmap section for the block-wise intersection
  /// kernels: membership of docid d is bit (d - first) for d in
  /// [first, first + range). Validates the header and section bounds but
  /// not the population (the strict Decode path does).
  struct View {
    const uint8_t* bits = nullptr;
    uint32_t range = 0;
    DocId first = 0;  // docid of bit 0 (= block base + 1)
    bool Test(DocId d) const {
      uint32_t off = d - first;  // wraps for d < first; range check catches
      return off < range && (bits[off >> 3] >> (off & 7)) & 1;
    }
  };
  static Result<View> MakeView(std::string_view in, DocId base);
};

/// Per-block codec tag (first byte of every encoded block). Persisted
/// verbatim by the snapshot writer; an unknown tag is typed
/// InvalidArgument at load/decode time, which the snapshot reader treats
/// as corruption and falls back to a rebuild.
enum class BlockCodec : uint8_t { kVarint = 0, kFor = 1, kBitmap = 2 };

/// How blocks pick their codec. kAuto takes whichever encoding is
/// smallest per block (varint vs FOR vs bitmap); kBitmapPreferred forces
/// the bitmap whenever the block is bitmappable without blowing past the
/// uncompressed footprint (representation-matrix tests); the remaining
/// forced policies exist for the codec ablation bench.
enum class CodecPolicy { kAuto, kVarintOnly, kForOnly, kBitmapPreferred };

class CompressedPostingList;

/// Per-batch decoded-block arena (staged pipeline executor, DESIGN.md
/// §16). While a thread has an arena installed (Scope), every block load
/// — CompressedPostingList::LoadDocs/LoadTfs, which iterators and the
/// block kernels both use — first consults it: the first query in a
/// batch to touch a (list, block) pair decodes it into the arena, and
/// every later conjunction in the same batch shares the decoded run by
/// span — the block is decoded once per batch.
/// CostCounters are still charged per query exactly as if each query had
/// decoded the block itself, so cost-driven behavior (degradation
/// ladders, perf gates, trace attribution) is bit-identical with and
/// without an arena.
///
/// Cost model: a miss must cost no more than the private decode it
/// replaces, or sharing cannot pay. Entries are slots whose decode
/// buffers are reused from batch to batch, and the (list, block) index is
/// a flat open-addressing table stamped with a batch generation, so
/// Clear() is O(1) and, once warm, neither a miss nor Clear() allocates
/// or frees. A miss is one table probe plus a decode into a reused
/// buffer; a hit is one probe.
///
/// Deliberately per-batch, NOT a global cache: the arena is owned and
/// cleared by one intersect worker per batch, so it needs no
/// synchronization, and entries can never outlive the LiveSet snapshot
/// their list pointers came from. Everything it holds (slots, buffers,
/// table) stays within `max_bytes`; a load that would grow it past the
/// bound decodes privately and is not cached. Under AddressSanitizer,
/// Clear() poisons every buffer, so a span read after its batch ended is
/// reported as a use-after-poison.
class DecodedBlockArena {
 public:
  static constexpr size_t kDefaultMaxBytes = 1 << 20;

  explicit DecodedBlockArena(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes == 0 ? kDefaultMaxBytes : max_bytes) {}
  ~DecodedBlockArena();
  DecodedBlockArena(const DecodedBlockArena&) = delete;
  DecodedBlockArena& operator=(const DecodedBlockArena&) = delete;

  struct Entry {
    std::vector<DocId> docs;      // decoded docid section
    size_t tf_offset = 0;         // tf section offset within the body
    std::vector<uint32_t> tfs;    // decoded lazily on first GetTfs
    bool tfs_loaded = false;
  };

  /// The decoded docids of `block`, decoding on first touch. Returns
  /// nullptr when the block cannot be cached (decode failure, or caching
  /// it would grow the arena past its byte bound) — the caller then
  /// decodes privately, exactly as without an arena. The returned entry
  /// stays valid until Clear() or destruction.
  const Entry* GetDocs(const CompressedPostingList* list, size_t block);

  /// The decoded tfs of `block` (requires a prior successful GetDocs for
  /// the same block). nullptr on decode failure or budget overflow.
  const Entry* GetTfs(const CompressedPostingList* list, size_t block);

  /// Ends the batch: no entry is served again, and every buffer is kept
  /// for the next batch.
  void Clear();

  /// Bytes the arena holds (slots, decode buffers, table); <= max_bytes.
  size_t bytes() const { return bytes_; }
  size_t max_bytes() const { return max_bytes_; }
  /// Entries of the current batch.
  size_t entries() const { return used_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Installs `arena` as the calling thread's active arena for the
  /// scope's lifetime (restoring the previous one on exit). Iterator
  /// block loads on this thread consult it; other threads are unaffected.
  class Scope {
   public:
    explicit Scope(DecodedBlockArena* arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    DecodedBlockArena* prev_;
  };

  /// The calling thread's active arena (nullptr outside any Scope).
  static DecodedBlockArena* Active();

 private:
  /// One table cell: live only while `gen` equals the arena's current
  /// generation, so bumping the generation empties the table.
  struct Bucket {
    const CompressedPostingList* list = nullptr;
    uint32_t block = 0;
    uint32_t slot = 0;
    uint32_t gen = 0;
  };

  /// The current-batch bucket for the key, or the empty bucket where it
  /// belongs.
  Bucket& Probe(const CompressedPostingList* list, uint32_t block);
  /// Doubles the table (rehashing live buckets) when one more entry would
  /// push its load past 1/2; false when that would break the byte bound.
  bool ReserveBucket();
  /// Grows `v` to hold `n` elements within the byte bound; false if not.
  template <typename T>
  bool Fit(std::vector<T>& v, size_t n);

  // std::deque: slots never move, so entries handed out stay put while
  // later misses append slots.
  std::deque<Entry> slots_;
  std::vector<Bucket> table_;
  size_t used_ = 0;  // slots holding current-batch entries
  uint32_t gen_ = 1;
  size_t max_bytes_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Process-wide posting-block decode tally (relaxed atomic, mirroring the
/// intersect-kernel tallies in simd_intersect.h): how many block docid
/// sections iterators and block kernels actually decoded, privately or
/// into a batch arena.
/// The serving bench snapshots deltas to report blocks-decoded-per-query
/// with and without cross-query batching.
struct DecodeTallies {
  uint64_t blocks_decoded = 0;
};
DecodeTallies SnapshotDecodeTallies();

/// An immutable, block-compressed posting list with a per-block skip
/// table carrying block-max metadata (max docid AND max tf per block, the
/// block-max WAND structure). Functionally equivalent to PostingList (same
/// iterator contract, including SkipTo), at a fraction of the memory; the
/// ablation bench bench_ablation_codec quantifies both sides of the trade.
class CompressedPostingList {
 public:
  static constexpr uint32_t kDefaultBlockSize = 128;

  struct BlockMeta {
    DocId max_doc;        // largest docid in the block
    DocId base;           // docid base for delta decoding
    uint32_t offset;      // byte offset into bytes_ (tag byte included)
    uint32_t count;       // postings in the block
    uint32_t max_tf;      // largest tf in the block (block-max WAND)
  };

  /// Compresses an existing in-memory list.
  static CompressedPostingList FromPostingList(
      const PostingList& list, uint32_t block_size = kDefaultBlockSize,
      CodecPolicy policy = CodecPolicy::kAuto);

  /// Compresses a raw sorted posting span (snapshot tooling, tests).
  static CompressedPostingList FromPostings(
      std::span<const Posting> postings,
      uint32_t block_size = kDefaultBlockSize,
      CodecPolicy policy = CodecPolicy::kAuto);

  /// Reassembles a list from persisted parts WITHOUT re-encoding (the
  /// snapshot load path). Validates the block metadata invariants
  /// (monotone offsets and docids, counts summing to num_postings);
  /// corrupt metadata is InvalidArgument.
  struct Parts {
    uint32_t block_size = kDefaultBlockSize;
    uint64_t num_postings = 0;
    uint64_t total_tf = 0;
    uint32_t max_tf = 0;
    std::string bytes;
    std::vector<BlockMeta> blocks;
  };
  static Result<CompressedPostingList> FromParts(Parts parts);

  size_t size() const { return num_postings_; }
  bool empty() const { return num_postings_ == 0; }
  uint32_t block_size() const { return block_size_; }
  uint64_t total_tf() const { return total_tf_; }
  uint32_t max_tf() const { return max_tf_; }

  size_t num_blocks() const { return blocks_.size(); }
  std::span<const BlockMeta> blocks() const { return blocks_; }
  /// Raw encoded bytes (serialized verbatim by the snapshot writer).
  const std::string& raw_bytes() const { return bytes_; }

  /// The encoded bytes of one block: tag byte + body.
  std::string_view BlockBytes(size_t block) const;
  /// Codec tag of one block (what the first byte says; never validated
  /// against the enum here — decode paths type the error).
  BlockCodec BlockCodecTag(size_t block) const {
    return static_cast<BlockCodec>(
        static_cast<uint8_t>(bytes_[blocks_[block].offset]));
  }

  /// Per-representation block tally, indexed by BlockCodec — the
  /// dispatch report surfaced by shell .stats and the kernels bench
  /// section. Maintained by both build paths (FromPostings counts as it
  /// encodes; FromParts counts while validating tags).
  const std::array<uint64_t, 3>& codec_block_counts() const {
    return codec_counts_;
  }
  bool has_bitmap_blocks() const {
    return codec_counts_[static_cast<size_t>(BlockCodec::kBitmap)] > 0;
  }

  uint64_t MemoryBytes() const {
    return bytes_.size() + blocks_.size() * sizeof(BlockMeta);
  }

  /// Block-max probe: finds the block holding the first posting with
  /// docid >= target (searching forward from block `hint`) and reports its
  /// last docid and max tf WITHOUT decoding it. Returns false when every
  /// remaining posting is < target.
  bool BlockBound(DocId target, size_t hint, DocId* block_last_doc,
                  uint32_t* block_max_tf) const;

  /// Decompresses the whole list (mainly for tests / rebuilds).
  std::vector<Posting> Decode() const;

  /// The docids of `block`, and in *tf_offset where its tf section
  /// starts: served from the calling thread's DecodedBlockArena when one
  /// is installed, else decoded into `own`. Every decode, into the arena
  /// or into `own`, counts in DecodeTallies::blocks_decoded. Empty on a
  /// corrupt block. Iterators and the block kernels (intersection.h) load
  /// every block through it; cost charges stay with the caller.
  std::span<const DocId> LoadDocs(size_t block, std::vector<DocId>& own,
                                  size_t* tf_offset) const;
  /// The tfs of `block` given LoadDocs's `tf_offset`, from the arena or
  /// decoded into `own`. Empty on a corrupt section (tfs read as 0).
  std::span<const uint32_t> LoadTfs(size_t block, size_t tf_offset,
                                    std::vector<uint32_t>& own) const;

  /// Iterator decoding one block at a time, with galloping skip support
  /// mirroring PostingList::Iterator. Only the docid section is decoded on
  /// block load; the tf section is decoded lazily on the first tf() call
  /// into the block, so intersections (which never read tfs) pay for
  /// exactly the bytes they touch. Charges cost per posting probed, per
  /// section decoded (segments_touched + bytes_touched), and per
  /// cross-block jump (skips_taken).
  class Iterator {
   public:
    Iterator(const CompressedPostingList* list, CostCounters* cost);

    bool AtEnd() const { return at_end_; }
    DocId doc() const { return docs_[pos_]; }
    uint32_t tf() const {
      if (!tfs_loaded_) LoadTfs();
      return pos_ < tfs_.size() ? tfs_[pos_] : 0;
    }
    size_t block() const { return block_; }

    void Next();
    void SkipTo(DocId target);

    /// Advances to the first posting with docid >= target by linear
    /// stepping within the current block — the merge strategy for
    /// comparably-sized lists. Falls back to SkipTo at block boundaries
    /// so runs of non-overlapping blocks are still bypassed undecoded.
    void MergeTo(DocId target);

   private:
    void LoadBlock(size_t block);
    void LoadTfs() const;

    const CompressedPostingList* list_;
    CostCounters* cost_;
    // The current block's decoded sections. The spans view either this
    // iterator's own storage (own_docs_/own_tfs_) or a shared entry in
    // the thread's active DecodedBlockArena; the arena outlives every
    // iterator of its batch, so the views stay valid across Next/SkipTo.
    std::vector<DocId> own_docs_;
    std::span<const DocId> docs_;
    mutable std::vector<uint32_t> own_tfs_;
    mutable std::span<const uint32_t> tfs_;
    mutable bool tfs_loaded_ = false;
    size_t tf_offset_ = 0;  // tf section offset within the block body
    size_t block_ = 0;
    size_t pos_ = 0;
    bool at_end_ = false;
  };

  Iterator MakeIterator(CostCounters* cost = nullptr) const {
    return Iterator(this, cost);
  }

 private:
  uint32_t block_size_ = kDefaultBlockSize;
  size_t num_postings_ = 0;
  uint64_t total_tf_ = 0;
  uint32_t max_tf_ = 0;
  std::string bytes_;
  std::vector<BlockMeta> blocks_;
  std::array<uint64_t, 3> codec_counts_{};  // indexed by BlockCodec
};

}  // namespace csr

#endif  // CSR_INDEX_CODEC_H_
