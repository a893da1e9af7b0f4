#include "index/codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "index/simd_unpack.h"

// Arena buffers outlive their batch by design; under AddressSanitizer they
// are poisoned between batches so a stale span read is still reported.
#if defined(__SANITIZE_ADDRESS__)
#define CSR_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CSR_ARENA_ASAN 1
#endif
#endif
#ifdef CSR_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace csr {

void PutVarint32(std::string& out, uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

const uint8_t* GetVarint32(const uint8_t* p, const uint8_t* end,
                           uint32_t* v) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && p < end; shift += 7) {
    uint32_t byte = *p++;
    if (byte & 0x80) {
      result |= (byte & 0x7F) << shift;
    } else {
      result |= byte << shift;
      *v = result;
      return p;
    }
  }
  return nullptr;  // truncated or overlong
}

void PostingBlockCodec::Encode(std::span<const Posting> postings, DocId base,
                               std::string& out) {
  DocId prev = base;
  for (const Posting& p : postings) {
    PutVarint32(out, p.doc - prev);
    prev = p.doc;
  }
  for (const Posting& p : postings) PutVarint32(out, p.tf);
}

Status PostingBlockCodec::DecodeDocs(std::string_view in, DocId base,
                                     size_t count, std::vector<DocId>& docs,
                                     size_t* tf_offset) {
  docs.resize(count);
  const uint8_t* start = reinterpret_cast<const uint8_t*>(in.data());
  const uint8_t* p = start;
  const uint8_t* end = p + in.size();
  DocId prev = base;
  bool first = true;
  for (size_t i = 0; i < count; ++i) {
    uint32_t delta;
    p = GetVarint32(p, end, &delta);
    if (p == nullptr) return Status::OutOfRange("truncated posting block");
    if (!first && delta == 0) {
      return Status::InvalidArgument("non-increasing docid in block");
    }
    prev += delta;
    first = false;
    docs[i] = prev;
  }
  *tf_offset = static_cast<size_t>(p - start);
  return Status::OK();
}

Status PostingBlockCodec::DecodeTfs(std::string_view in, size_t tf_offset,
                                    size_t count,
                                    std::vector<uint32_t>& tfs) {
  if (tf_offset > in.size()) {
    return Status::OutOfRange("truncated tf section");
  }
  tfs.resize(count);
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(in.data()) + tf_offset;
  const uint8_t* end = reinterpret_cast<const uint8_t*>(in.data()) + in.size();
  for (size_t i = 0; i < count; ++i) {
    p = GetVarint32(p, end, &tfs[i]);
    if (p == nullptr) return Status::OutOfRange("truncated tf section");
  }
  return Status::OK();
}

Status PostingBlockCodec::Decode(std::string_view in, DocId base,
                                 size_t count, std::vector<Posting>& out) {
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  size_t tf_offset = 0;
  CSR_RETURN_NOT_OK(DecodeDocs(in, base, count, docs, &tf_offset));
  CSR_RETURN_NOT_OK(DecodeTfs(in, tf_offset, count, tfs));
  out.resize(count);
  for (size_t i = 0; i < count; ++i) out[i] = Posting{docs[i], tfs[i]};
  return Status::OK();
}

namespace {

inline uint32_t BitsNeeded(uint32_t v) {
  return v == 0 ? 0 : 32 - static_cast<uint32_t>(std::countl_zero(v));
}

inline size_t PackedBytes(size_t count, uint32_t bits) {
  return (count * bits + 7) / 8;
}

/// Computes the per-value maximum bit widths of a block without building
/// the delta array. First delta is doc0 - base; later deltas are stored
/// minus 1 (consecutive docids pack to width 0).
void ForWidths(std::span<const Posting> postings, DocId base,
               uint32_t* doc_bits, uint32_t* tf_bits) {
  uint32_t db = 0, tb = 0;
  DocId prev = base;
  bool first = true;
  for (const Posting& p : postings) {
    uint32_t delta = first ? p.doc - prev : p.doc - prev - 1;
    db = std::max(db, BitsNeeded(delta));
    tb = std::max(tb, BitsNeeded(p.tf));
    prev = p.doc;
    first = false;
  }
  *doc_bits = db;
  *tf_bits = tb;
}

}  // namespace

void ForBlockCodec::PackBits(const uint32_t* values, size_t count,
                             uint32_t bits, std::string& out) {
  if (bits == 0) return;
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  for (size_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(values[i]) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out.push_back(static_cast<char>(acc & 0xFF));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out.push_back(static_cast<char>(acc & 0xFF));
}

Status ForBlockCodec::UnpackBits(const uint8_t* p, size_t avail,
                                 size_t count, uint32_t bits,
                                 uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + count, 0u);
    return Status::OK();
  }
  if (bits > 32) return Status::InvalidArgument("bit width > 32");
  if (PackedBytes(count, bits) > avail) {
    return Status::OutOfRange("truncated bit-packed section");
  }
  // Validation done; the unpack itself goes through the runtime-dispatched
  // kernel (simd_unpack.cc: scalar / SSE2 / AVX2, bit-identical output).
  // Values are extracted low-bits-first, so a wide load that pulls in
  // bytes past the packed section (but within `avail`) never contaminates
  // the decoded values.
  UnpackBitsDispatch(p, avail, count, bits, out);
  return Status::OK();
}

void ForBlockCodec::Encode(std::span<const Posting> postings, DocId base,
                           std::string& out) {
  uint32_t doc_bits = 0, tf_bits = 0;
  ForWidths(postings, base, &doc_bits, &tf_bits);
  out.push_back(static_cast<char>(doc_bits));
  out.push_back(static_cast<char>(tf_bits));

  std::vector<uint32_t> scratch(postings.size());
  DocId prev = base;
  bool first = true;
  for (size_t i = 0; i < postings.size(); ++i) {
    scratch[i] = first ? postings[i].doc - prev : postings[i].doc - prev - 1;
    prev = postings[i].doc;
    first = false;
  }
  PackBits(scratch.data(), scratch.size(), doc_bits, out);
  for (size_t i = 0; i < postings.size(); ++i) scratch[i] = postings[i].tf;
  PackBits(scratch.data(), scratch.size(), tf_bits, out);
}

size_t ForBlockCodec::EncodedSize(std::span<const Posting> postings,
                                  DocId base) {
  uint32_t doc_bits = 0, tf_bits = 0;
  ForWidths(postings, base, &doc_bits, &tf_bits);
  return 2 + PackedBytes(postings.size(), doc_bits) +
         PackedBytes(postings.size(), tf_bits);
}

Status ForBlockCodec::DecodeDocs(std::string_view in, DocId base,
                                 size_t count, std::vector<DocId>& docs,
                                 size_t* tf_offset) {
  if (in.size() < 2) return Status::OutOfRange("truncated FOR header");
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in.data());
  uint32_t doc_bits = p[0];
  uint32_t tf_bits = p[1];
  if (doc_bits > 32 || tf_bits > 32) {
    return Status::InvalidArgument("corrupt FOR bit width");
  }
  size_t doc_bytes = PackedBytes(count, doc_bits);
  size_t tf_bytes = PackedBytes(count, tf_bits);
  if (in.size() < 2 + doc_bytes + tf_bytes) {
    return Status::OutOfRange("truncated FOR block");
  }

  // Unpack the deltas directly into the output, then prefix-sum in place.
  // Monotonicity means overflow anywhere implies overflow of the final
  // docid, so one check at the end suffices.
  docs.resize(count);
  CSR_RETURN_NOT_OK(UnpackBits(p + 2, doc_bytes, count, doc_bits,
                               docs.data()));
  uint64_t prev = base;
  for (size_t i = 0; i < count; ++i) {
    prev += i == 0 ? static_cast<uint64_t>(docs[i])
                   : static_cast<uint64_t>(docs[i]) + 1;
    docs[i] = static_cast<DocId>(prev);
  }
  if (count > 0 && prev > kInvalidDocId - 1) {
    return Status::InvalidArgument("docid overflow in FOR block");
  }
  *tf_offset = 2 + doc_bytes;
  return Status::OK();
}

Status ForBlockCodec::DecodeTfs(std::string_view in, size_t tf_offset,
                                size_t count, std::vector<uint32_t>& tfs) {
  if (in.size() < 2 || tf_offset > in.size()) {
    return Status::OutOfRange("truncated FOR block");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in.data());
  uint32_t tf_bits = p[1];
  if (tf_bits > 32) return Status::InvalidArgument("corrupt FOR bit width");
  size_t tf_bytes = PackedBytes(count, tf_bits);
  if (in.size() < tf_offset + tf_bytes) {
    return Status::OutOfRange("truncated FOR block");
  }
  tfs.resize(count);
  return UnpackBits(p + tf_offset, tf_bytes, count, tf_bits, tfs.data());
}

Status ForBlockCodec::Decode(std::string_view in, DocId base, size_t count,
                             std::vector<Posting>& out) {
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  size_t tf_offset = 0;
  CSR_RETURN_NOT_OK(DecodeDocs(in, base, count, docs, &tf_offset));
  CSR_RETURN_NOT_OK(DecodeTfs(in, tf_offset, count, tfs));
  out.resize(count);
  for (size_t i = 0; i < count; ++i) out[i] = Posting{docs[i], tfs[i]};
  return Status::OK();
}

namespace {

inline size_t BitmapBytesFor(uint32_t range) { return (range + 7) / 8; }

/// Max tf bit width of a block (the bitmap header's only per-value width).
uint32_t TfWidth(std::span<const Posting> postings) {
  uint32_t tb = 0;
  for (const Posting& p : postings) tb = std::max(tb, BitsNeeded(p.tf));
  return tb;
}

}  // namespace

size_t BitmapBlockCodec::EncodedSize(std::span<const Posting> postings,
                                     DocId base) {
  if (postings.empty()) return SIZE_MAX;
  // Bit 0 maps to docid base + 1: a first block starting at docid 0 (doc
  // == base == 0) has no slot, so it cannot be bitmapped.
  if (postings.front().doc <= base) return SIZE_MAX;
  uint32_t range = postings.back().doc - base;
  if (range > kMaxRange) return SIZE_MAX;
  return 1 + 4 + BitmapBytesFor(range) +
         PackedBytes(postings.size(), TfWidth(postings));
}

void BitmapBlockCodec::Encode(std::span<const Posting> postings, DocId base,
                              std::string& out) {
  const uint32_t range = postings.back().doc - base;
  const uint32_t tf_bits = TfWidth(postings);
  out.push_back(static_cast<char>(tf_bits));
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<char>((range >> (8 * b)) & 0xFF));
  }
  const size_t bm_start = out.size();
  out.append(BitmapBytesFor(range), '\0');
  for (const Posting& p : postings) {
    uint32_t off = p.doc - base - 1;  // bit 0 <=> docid base + 1
    out[bm_start + (off >> 3)] |= static_cast<char>(1u << (off & 7));
  }
  std::vector<uint32_t> tfs(postings.size());
  for (size_t i = 0; i < postings.size(); ++i) tfs[i] = postings[i].tf;
  ForBlockCodec::PackBits(tfs.data(), tfs.size(), tf_bits, out);
}

Result<BitmapBlockCodec::View> BitmapBlockCodec::MakeView(
    std::string_view in, DocId base) {
  if (in.size() < 5) return Status::OutOfRange("truncated bitmap header");
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in.data());
  uint32_t range = 0;
  for (int b = 0; b < 4; ++b) range |= static_cast<uint32_t>(p[1 + b]) << (8 * b);
  if (range == 0 || range > kMaxRange) {
    return Status::InvalidArgument("corrupt bitmap range");
  }
  if (in.size() < 5 + BitmapBytesFor(range)) {
    return Status::OutOfRange("truncated bitmap block");
  }
  if (base + static_cast<uint64_t>(range) >= kInvalidDocId) {
    return Status::InvalidArgument("docid overflow in bitmap block");
  }
  View v;
  v.bits = p + 5;
  v.range = range;
  v.first = base + 1;
  return v;
}

Status BitmapBlockCodec::DecodeDocs(std::string_view in, DocId base,
                                    size_t count, std::vector<DocId>& docs,
                                    size_t* tf_offset) {
  auto view_r = MakeView(in, base);
  CSR_RETURN_NOT_OK(view_r.status());
  const View& v = view_r.value();
  if (v.range < count) {
    return Status::InvalidArgument("bitmap range below block count");
  }
  const size_t bm_bytes = BitmapBytesFor(v.range);
  docs.clear();
  docs.reserve(count);
  // Word-wise scan: load 8 bitmap bytes at a time, peel set bits with
  // countr_zero. Bits at or past `range` in the final word must be zero —
  // set ones are corruption, as is any population other than `count`.
  for (size_t byte = 0; byte < bm_bytes; byte += 8) {
    uint64_t w = 0;
    size_t n = std::min<size_t>(8, bm_bytes - byte);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, v.bits + byte, n);
    } else {
      for (size_t k = 0; k < n; ++k) {
        w |= static_cast<uint64_t>(v.bits[byte + k]) << (8 * k);
      }
    }
    const uint64_t bit_base = byte * 8;
    if (bit_base + 64 > v.range) {
      uint64_t valid = v.range - bit_base;  // < 64
      if ((w >> valid) != 0) {
        return Status::InvalidArgument("bitmap bits set past range");
      }
    }
    while (w != 0) {
      unsigned b = static_cast<unsigned>(std::countr_zero(w));
      if (docs.size() == count) {
        return Status::InvalidArgument("bitmap population mismatch");
      }
      docs.push_back(v.first + static_cast<DocId>(bit_base + b));
      w &= w - 1;
    }
  }
  if (docs.size() != count) {
    return Status::InvalidArgument("bitmap population mismatch");
  }
  *tf_offset = 5 + bm_bytes;
  return Status::OK();
}

Status BitmapBlockCodec::DecodeTfs(std::string_view in, size_t tf_offset,
                                   size_t count, std::vector<uint32_t>& tfs) {
  if (in.size() < 5 || tf_offset > in.size()) {
    return Status::OutOfRange("truncated bitmap block");
  }
  uint32_t tf_bits = static_cast<uint8_t>(in[0]);
  if (tf_bits > 32) {
    return Status::InvalidArgument("corrupt bitmap tf width");
  }
  size_t tf_bytes = PackedBytes(count, tf_bits);
  if (in.size() < tf_offset + tf_bytes) {
    return Status::OutOfRange("truncated bitmap block");
  }
  tfs.resize(count);
  return ForBlockCodec::UnpackBits(
      reinterpret_cast<const uint8_t*>(in.data()) + tf_offset, tf_bytes,
      count, tf_bits, tfs.data());
}

Status BitmapBlockCodec::Decode(std::string_view in, DocId base,
                                size_t count, std::vector<Posting>& out) {
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  size_t tf_offset = 0;
  CSR_RETURN_NOT_OK(DecodeDocs(in, base, count, docs, &tf_offset));
  CSR_RETURN_NOT_OK(DecodeTfs(in, tf_offset, count, tfs));
  out.resize(count);
  for (size_t i = 0; i < count; ++i) out[i] = Posting{docs[i], tfs[i]};
  return Status::OK();
}

namespace {

/// Encodes one block with a leading codec tag, picking the smallest
/// encoding under kAuto (the auto-selection rule: FOR's and the bitmap's
/// sizes are computed analytically, varint's by encoding into scratch).
BlockCodec EncodeTaggedBlock(std::span<const Posting> block, DocId base,
                             CodecPolicy policy, std::string& out,
                             std::string& scratch) {
  BlockCodec pick;
  switch (policy) {
    case CodecPolicy::kVarintOnly:
      pick = BlockCodec::kVarint;
      break;
    case CodecPolicy::kForOnly:
      pick = BlockCodec::kFor;
      break;
    case CodecPolicy::kBitmapPreferred: {
      // Bitmap whenever representable without exceeding the uncompressed
      // footprint; FOR otherwise (sparse blocks would explode as bitsets).
      size_t bm = BitmapBlockCodec::EncodedSize(block, base);
      pick = bm != SIZE_MAX && bm <= block.size() * sizeof(Posting)
                 ? BlockCodec::kBitmap
                 : BlockCodec::kFor;
      break;
    }
    case CodecPolicy::kAuto:
    default: {
      scratch.clear();
      PostingBlockCodec::Encode(block, base, scratch);
      size_t var_size = scratch.size();
      size_t for_size = ForBlockCodec::EncodedSize(block, base);
      size_t bm_size = BitmapBlockCodec::EncodedSize(block, base);
      if (bm_size <= for_size && bm_size <= var_size) {
        pick = BlockCodec::kBitmap;  // ties go to the faster probes
      } else if (for_size < var_size) {
        pick = BlockCodec::kFor;
      } else {
        pick = BlockCodec::kVarint;
      }
      break;
    }
  }
  out.push_back(static_cast<char>(pick));
  switch (pick) {
    case BlockCodec::kFor:
      ForBlockCodec::Encode(block, base, out);
      break;
    case BlockCodec::kBitmap:
      BitmapBlockCodec::Encode(block, base, out);
      break;
    case BlockCodec::kVarint:
      if (policy == CodecPolicy::kAuto) {
        out.append(scratch);  // already encoded by the size probe
      } else {
        PostingBlockCodec::Encode(block, base, out);
      }
      break;
  }
  return pick;
}

/// Decodes a tagged block. Typed errors on unknown tags or corrupt bodies.
Status DecodeTaggedBlock(std::string_view in, DocId base, size_t count,
                         std::vector<Posting>& out) {
  if (in.empty()) return Status::OutOfRange("empty posting block");
  auto tag = static_cast<uint8_t>(in[0]);
  std::string_view body = in.substr(1);
  switch (static_cast<BlockCodec>(tag)) {
    case BlockCodec::kVarint:
      return PostingBlockCodec::Decode(body, base, count, out);
    case BlockCodec::kFor:
      return ForBlockCodec::Decode(body, base, count, out);
    case BlockCodec::kBitmap:
      return BitmapBlockCodec::Decode(body, base, count, out);
  }
  return Status::InvalidArgument("unknown posting block codec tag");
}

/// Split-decode variants for the iterator's lazy-tf path. `tf_offset` is
/// relative to the block body (after the tag byte).
Status DecodeTaggedDocs(std::string_view in, DocId base, size_t count,
                        std::vector<DocId>& docs, size_t* tf_offset) {
  if (in.empty()) return Status::OutOfRange("empty posting block");
  auto tag = static_cast<uint8_t>(in[0]);
  std::string_view body = in.substr(1);
  switch (static_cast<BlockCodec>(tag)) {
    case BlockCodec::kVarint:
      return PostingBlockCodec::DecodeDocs(body, base, count, docs,
                                           tf_offset);
    case BlockCodec::kFor:
      return ForBlockCodec::DecodeDocs(body, base, count, docs, tf_offset);
    case BlockCodec::kBitmap:
      return BitmapBlockCodec::DecodeDocs(body, base, count, docs,
                                          tf_offset);
  }
  return Status::InvalidArgument("unknown posting block codec tag");
}

Status DecodeTaggedTfs(std::string_view in, size_t tf_offset, size_t count,
                       std::vector<uint32_t>& tfs) {
  if (in.empty()) return Status::OutOfRange("empty posting block");
  auto tag = static_cast<uint8_t>(in[0]);
  std::string_view body = in.substr(1);
  switch (static_cast<BlockCodec>(tag)) {
    case BlockCodec::kVarint:
      return PostingBlockCodec::DecodeTfs(body, tf_offset, count, tfs);
    case BlockCodec::kFor:
      return ForBlockCodec::DecodeTfs(body, tf_offset, count, tfs);
    case BlockCodec::kBitmap:
      return BitmapBlockCodec::DecodeTfs(body, tf_offset, count, tfs);
  }
  return Status::InvalidArgument("unknown posting block codec tag");
}

}  // namespace

namespace {

// Process-wide decode tally (same relaxed-atomic idiom as the intersect
// kernel tallies): charged on every successful docid-section decode.
// Benches snapshot deltas.
std::atomic<uint64_t> g_blocks_decoded{0};

thread_local DecodedBlockArena* tl_active_arena = nullptr;

template <typename T>
void PoisonCapacity(const std::vector<T>& v, bool poison) {
#ifdef CSR_ARENA_ASAN
  if (v.capacity() == 0) return;
  size_t n = v.capacity() * sizeof(T);
  if (poison) {
    __asan_poison_memory_region(v.data(), n);
  } else {
    __asan_unpoison_memory_region(v.data(), n);
  }
#else
  (void)v;
  (void)poison;
#endif
}

size_t BucketIndex(const CompressedPostingList* list, uint32_t block,
                   size_t mask) {
  uint64_t h = (reinterpret_cast<uintptr_t>(list) >> 4) ^
               (static_cast<uint64_t>(block) << 32);
  h *= 0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>(h >> 32) & mask;
}

}  // namespace

DecodeTallies SnapshotDecodeTallies() {
  DecodeTallies t;
  t.blocks_decoded = g_blocks_decoded.load(std::memory_order_relaxed);
  return t;
}

DecodedBlockArena::Scope::Scope(DecodedBlockArena* arena)
    : prev_(tl_active_arena) {
  tl_active_arena = arena;
}

DecodedBlockArena::Scope::~Scope() { tl_active_arena = prev_; }

DecodedBlockArena* DecodedBlockArena::Active() { return tl_active_arena; }

DecodedBlockArena::~DecodedBlockArena() {
  // Hand the allocator back unpoisoned memory.
  for (Entry& e : slots_) {
    PoisonCapacity(e.docs, false);
    PoisonCapacity(e.tfs, false);
  }
}

DecodedBlockArena::Bucket& DecodedBlockArena::Probe(
    const CompressedPostingList* list, uint32_t block) {
  size_t mask = table_.size() - 1;
  for (size_t i = BucketIndex(list, block, mask);; i = (i + 1) & mask) {
    Bucket& b = table_[i];
    if (b.gen != gen_ || (b.list == list && b.block == block)) return b;
  }
}

bool DecodedBlockArena::ReserveBucket() {
  if ((used_ + 1) * 2 <= table_.size()) return true;
  size_t cap = std::max<size_t>(64, table_.size() * 2);
  size_t grown = bytes_ + (cap - table_.size()) * sizeof(Bucket);
  if (grown > max_bytes_) return false;
  std::vector<Bucket> old(cap);
  old.swap(table_);
  bytes_ = grown;
  for (const Bucket& b : old) {
    if (b.gen == gen_) Probe(b.list, b.block) = b;
  }
  return true;
}

template <typename T>
bool DecodedBlockArena::Fit(std::vector<T>& v, size_t n) {
  PoisonCapacity(v, false);
  if (n <= v.capacity()) return true;
  size_t grown = bytes_ + (n - v.capacity()) * sizeof(T);
  if (grown > max_bytes_) return false;
  size_t before = v.capacity();
  v.reserve(n);
  bytes_ += (v.capacity() - before) * sizeof(T);
  return true;
}

const DecodedBlockArena::Entry* DecodedBlockArena::GetDocs(
    const CompressedPostingList* list, size_t block) {
  const auto key_block = static_cast<uint32_t>(block);
  if (!table_.empty()) {
    Bucket& b = Probe(list, key_block);
    if (b.gen == gen_) {
      ++hits_;
      return &slots_[b.slot];
    }
  }
  // A miss takes the next slot, reusing its buffers. Anything that would
  // grow the arena past its bound — a new slot, a larger buffer, a larger
  // table — makes the load decode privately instead, uncached.
  if (!ReserveBucket()) return nullptr;
  if (used_ == slots_.size()) {
    if (bytes_ + sizeof(Entry) > max_bytes_) return nullptr;
    slots_.emplace_back();
    bytes_ += sizeof(Entry);
  }
  Entry& e = slots_[used_];
  const CompressedPostingList::BlockMeta& meta = list->blocks()[block];
  if (!Fit(e.docs, meta.count)) {
    PoisonCapacity(e.docs, true);
    return nullptr;
  }
  Status s = DecodeTaggedDocs(list->BlockBytes(block), meta.base, meta.count,
                              e.docs, &e.tf_offset);
  if (!s.ok() || e.docs.empty()) {
    PoisonCapacity(e.docs, true);
    return nullptr;  // caller poisons privately
  }
  e.tfs_loaded = false;
  ++misses_;
  g_blocks_decoded.fetch_add(1, std::memory_order_relaxed);
  Bucket& b = Probe(list, key_block);
  b = Bucket{list, key_block, static_cast<uint32_t>(used_), gen_};
  ++used_;
  return &e;
}

const DecodedBlockArena::Entry* DecodedBlockArena::GetTfs(
    const CompressedPostingList* list, size_t block) {
  if (table_.empty()) return nullptr;
  Bucket& b = Probe(list, static_cast<uint32_t>(block));
  if (b.gen != gen_) return nullptr;
  Entry& e = slots_[b.slot];
  if (!e.tfs_loaded) {
    const uint32_t count = list->blocks()[block].count;
    if (!Fit(e.tfs, count)) {
      PoisonCapacity(e.tfs, true);
      return nullptr;
    }
    Status s = DecodeTaggedTfs(list->BlockBytes(block), e.tf_offset, count,
                               e.tfs);
    if (!s.ok()) {
      PoisonCapacity(e.tfs, true);
      return nullptr;
    }
    e.tfs_loaded = true;
  }
  return &e;
}

void DecodedBlockArena::Clear() {
  for (size_t i = 0; i < used_; ++i) {
    PoisonCapacity(slots_[i].docs, true);
    PoisonCapacity(slots_[i].tfs, true);
  }
  used_ = 0;
  // Bumping the generation empties the table without touching it; only a
  // wrap back to an old stamp needs the cells reset.
  if (++gen_ == 0) {
    std::fill(table_.begin(), table_.end(), Bucket{});
    gen_ = 1;
  }
}

CompressedPostingList CompressedPostingList::FromPostings(
    std::span<const Posting> postings, uint32_t block_size,
    CodecPolicy policy) {
  CompressedPostingList out;
  out.block_size_ = block_size == 0 ? kDefaultBlockSize : block_size;
  out.num_postings_ = postings.size();

  std::string scratch;
  DocId base = 0;
  for (size_t i = 0; i < postings.size(); i += out.block_size_) {
    size_t n = std::min<size_t>(out.block_size_, postings.size() - i);
    std::span<const Posting> block = postings.subspan(i, n);

    BlockMeta meta;
    meta.base = base;
    meta.max_doc = block.back().doc;
    meta.offset = static_cast<uint32_t>(out.bytes_.size());
    meta.count = static_cast<uint32_t>(n);
    meta.max_tf = 0;
    for (const Posting& p : block) {
      meta.max_tf = std::max(meta.max_tf, p.tf);
      out.total_tf_ += p.tf;
    }
    out.max_tf_ = std::max(out.max_tf_, meta.max_tf);
    BlockCodec picked =
        EncodeTaggedBlock(block, base, policy, out.bytes_, scratch);
    out.codec_counts_[static_cast<size_t>(picked)]++;
    out.blocks_.push_back(meta);
    base = meta.max_doc;
  }
  return out;
}

CompressedPostingList CompressedPostingList::FromPostingList(
    const PostingList& list, uint32_t block_size, CodecPolicy policy) {
  std::vector<Posting> postings;
  postings.reserve(list.size());
  for (size_t i = 0; i < list.size(); ++i) postings.push_back(list.at(i));
  return FromPostings(postings, block_size, policy);
}

Result<CompressedPostingList> CompressedPostingList::FromParts(Parts parts) {
  CompressedPostingList out;
  out.block_size_ = parts.block_size == 0 ? kDefaultBlockSize
                                          : parts.block_size;
  out.num_postings_ = parts.num_postings;
  out.total_tf_ = parts.total_tf;
  out.max_tf_ = parts.max_tf;
  out.bytes_ = std::move(parts.bytes);
  out.blocks_ = std::move(parts.blocks);

  uint64_t counted = 0;
  for (size_t b = 0; b < out.blocks_.size(); ++b) {
    const BlockMeta& m = out.blocks_[b];
    if (m.count == 0 || m.count > out.block_size_) {
      return Status::InvalidArgument("corrupt block count");
    }
    if (m.offset >= out.bytes_.size()) {
      return Status::InvalidArgument("block offset beyond encoded bytes");
    }
    if (b == 0) {
      if (m.offset != 0 || m.base != 0) {
        return Status::InvalidArgument("corrupt first block metadata");
      }
    } else {
      const BlockMeta& prev = out.blocks_[b - 1];
      if (m.offset <= prev.offset || m.base != prev.max_doc ||
          m.max_doc <= prev.max_doc) {
        return Status::InvalidArgument("non-monotone block metadata");
      }
    }
    if (m.max_tf > out.max_tf_) {
      return Status::InvalidArgument("block max_tf exceeds list max_tf");
    }
    // The codec tag is part of the persisted bytes; an unknown value means
    // the file was corrupted (or written by a future format) — reject here
    // so the snapshot loader can fall back to a rebuild instead of
    // poisoning iterators at query time.
    uint8_t tag = static_cast<uint8_t>(out.bytes_[m.offset]);
    if (tag > static_cast<uint8_t>(BlockCodec::kBitmap)) {
      return Status::InvalidArgument("unknown posting block codec tag");
    }
    out.codec_counts_[tag]++;
    counted += m.count;
  }
  if (counted != out.num_postings_) {
    return Status::InvalidArgument("block counts disagree with list size");
  }
  if (out.blocks_.empty() != (out.num_postings_ == 0)) {
    return Status::InvalidArgument("block directory / size mismatch");
  }
  return out;
}

bool CompressedPostingList::BlockBound(DocId target, size_t hint,
                                       DocId* block_last_doc,
                                       uint32_t* block_max_tf) const {
  size_t b = std::min(hint, blocks_.size());
  if (b >= blocks_.size()) return false;
  if (blocks_[b].max_doc < target) {
    auto it = std::lower_bound(
        blocks_.begin() + b + 1, blocks_.end(), target,
        [](const BlockMeta& m, DocId t) { return m.max_doc < t; });
    if (it == blocks_.end()) return false;
    b = static_cast<size_t>(it - blocks_.begin());
  }
  *block_last_doc = blocks_[b].max_doc;
  *block_max_tf = blocks_[b].max_tf;
  return true;
}

std::string_view CompressedPostingList::BlockBytes(size_t block) const {
  const BlockMeta& meta = blocks_[block];
  size_t end =
      (block + 1 < blocks_.size()) ? blocks_[block + 1].offset : bytes_.size();
  return std::string_view(bytes_.data() + meta.offset, end - meta.offset);
}

std::vector<Posting> CompressedPostingList::Decode() const {
  std::vector<Posting> all;
  all.reserve(num_postings_);
  std::vector<Posting> block;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const BlockMeta& meta = blocks_[b];
    // Corruption is impossible for self-built lists; assert via ok().
    Status s = DecodeTaggedBlock(BlockBytes(b), meta.base, meta.count, block);
    if (!s.ok()) return all;
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

CompressedPostingList::Iterator::Iterator(const CompressedPostingList* list,
                                          CostCounters* cost)
    : list_(list), cost_(cost) {
  if (list_->blocks_.empty()) {
    at_end_ = true;
    return;
  }
  LoadBlock(0);
}

std::span<const DocId> CompressedPostingList::LoadDocs(
    size_t block, std::vector<DocId>& own, size_t* tf_offset) const {
  if (DecodedBlockArena* arena = DecodedBlockArena::Active()) {
    // nullptr: arena at its byte bound, or a corrupt block — decode
    // privately, exactly as without an arena.
    if (const DecodedBlockArena::Entry* e = arena->GetDocs(this, block)) {
      *tf_offset = e->tf_offset;
      return e->docs;
    }
  }
  const BlockMeta& meta = blocks_[block];
  Status s = DecodeTaggedDocs(BlockBytes(block), meta.base, meta.count, own,
                              tf_offset);
  if (!s.ok() || own.empty()) {
    // Defensive: self-built lists cannot hit this, and persisted lists are
    // whole-file checksummed before they get here. Poison rather than UB.
    own.clear();
    return {};
  }
  g_blocks_decoded.fetch_add(1, std::memory_order_relaxed);
  return own;
}

std::span<const uint32_t> CompressedPostingList::LoadTfs(
    size_t block, size_t tf_offset, std::vector<uint32_t>& own) const {
  if (DecodedBlockArena* arena = DecodedBlockArena::Active()) {
    if (const DecodedBlockArena::Entry* e = arena->GetTfs(this, block)) {
      return e->tfs;
    }
  }
  Status s =
      DecodeTaggedTfs(BlockBytes(block), tf_offset, blocks_[block].count, own);
  if (!s.ok()) own.clear();  // tfs read as 0; docids stay servable
  return own;
}

void CompressedPostingList::Iterator::LoadBlock(size_t block) {
  block_ = block;
  pos_ = 0;
  tfs_loaded_ = false;
  tfs_ = {};
  // A shared (arena) decode is charged exactly like a private one:
  // per-query counters must not depend on batch composition.
  docs_ = list_->LoadDocs(block, own_docs_, &tf_offset_);
  if (docs_.empty()) {
    at_end_ = true;
    return;
  }
  if (cost_ != nullptr) {
    cost_->segments_touched++;
    cost_->bytes_touched += 1 + tf_offset_;  // tag + docid section
  }
}

void CompressedPostingList::Iterator::LoadTfs() const {
  tfs_loaded_ = true;
  if (at_end_ || docs_.empty()) {
    tfs_ = {};
    return;
  }
  tfs_ = list_->LoadTfs(block_, tf_offset_, own_tfs_);
  if (!tfs_.empty() && cost_ != nullptr) {
    cost_->bytes_touched +=
        list_->BlockBytes(block_).size() - (1 + tf_offset_);
  }
}

void CompressedPostingList::Iterator::Next() {
  if (cost_ != nullptr) cost_->entries_scanned++;
  ++pos_;
  if (pos_ >= docs_.size()) {
    if (block_ + 1 >= list_->blocks_.size()) {
      at_end_ = true;
      return;
    }
    LoadBlock(block_ + 1);
  }
}

void CompressedPostingList::Iterator::SkipTo(DocId target) {
  if (at_end_) return;
  if (docs_[pos_] >= target) return;

  const auto& blocks = list_->blocks_;
  if (blocks[block_].max_doc < target) {
    // Gallop over block metadata: exponential probes bracket the first
    // block whose max_doc >= target, then binary search the bracket. The
    // skipped blocks are never decoded.
    size_t bound = 1;
    while (block_ + bound < blocks.size() &&
           blocks[block_ + bound].max_doc < target) {
      bound <<= 1;
    }
    size_t lo = block_ + bound / 2 + 1;
    size_t hi = std::min(block_ + bound + 1, blocks.size());
    auto it = std::lower_bound(
        blocks.begin() + lo, blocks.begin() + hi, target,
        [](const BlockMeta& m, DocId t) { return m.max_doc < t; });
    if (cost_ != nullptr) cost_->skips_taken++;
    if (it == blocks.begin() + hi && hi == blocks.size()) {
      at_end_ = true;
      return;
    }
    size_t next = static_cast<size_t>(it - blocks.begin());
    if (cost_ != nullptr) cost_->blocks_skipped += next - block_ - 1;
    LoadBlock(next);
    if (at_end_) return;  // poisoned by a decode failure
  }

  if (docs_[pos_] >= target) {
    if (cost_ != nullptr) cost_->entries_scanned++;
    return;
  }
  // Gallop within the decoded buffer; docs_[pos_] < target and the
  // located block's max_doc >= target guarantee a hit past pos_.
  size_t bound = 1;
  size_t probes = 1;
  while (pos_ + bound < docs_.size() && docs_[pos_ + bound] < target) {
    bound <<= 1;
    ++probes;
  }
  size_t lo = pos_ + bound / 2 + 1;
  size_t hi = std::min(pos_ + bound + 1, docs_.size());
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    ++probes;
    if (docs_[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  pos_ = lo;
  if (cost_ != nullptr) cost_->entries_scanned += probes;
}

void CompressedPostingList::Iterator::MergeTo(DocId target) {
  while (!at_end_ && docs_[pos_] < target) {
    if (pos_ + 1 < docs_.size()) {
      ++pos_;
      if (cost_ != nullptr) cost_->entries_scanned++;
    } else if (block_ + 1 < list_->blocks_.size() &&
               list_->blocks_[block_ + 1].max_doc >= target) {
      LoadBlock(block_ + 1);
      if (cost_ != nullptr) cost_->entries_scanned++;
    } else {
      // Either exhausted or the next block(s) lie entirely below target:
      // let SkipTo bypass them without decoding.
      SkipTo(target);
      return;
    }
  }
}

}  // namespace csr
