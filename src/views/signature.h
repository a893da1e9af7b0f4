#ifndef CSR_VIEWS_SIGNATURE_H_
#define CSR_VIEWS_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace csr {

/// A fixed-width bitset keyed by a view's keyword-column positions. A view
/// tuple's group-by key (Section 4.1) is exactly "which of the view's
/// keyword columns are 1 for this partition" — a BitSignature. The paper's
/// observation that only non-empty tuples need storing (Section 4.3) is
/// realized by building rows in a hash map keyed by this signature.
class BitSignature {
 public:
  BitSignature() = default;

  /// Creates an all-zero signature with capacity for `num_bits` bits.
  explicit BitSignature(uint32_t num_bits)
      : words_((num_bits + 63) / 64, 0) {}

  void Set(uint32_t pos) { words_[pos >> 6] |= (1ULL << (pos & 63)); }
  bool Test(uint32_t pos) const {
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  /// True if every bit set in `mask` is also set here (mask ⊆ this).
  /// Both signatures must have the same capacity.
  bool ContainsAll(const BitSignature& mask) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & mask.words_[i]) != mask.words_[i]) return false;
    }
    return true;
  }

  uint32_t PopCount() const {
    uint32_t n = 0;
    for (uint64_t w : words_) n += static_cast<uint32_t>(__builtin_popcountll(w));
    return n;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  size_t num_words() const { return words_.size(); }

  uint64_t Hash() const {
    uint64_t h = 0x1B873593CC9E2D51ULL;
    for (uint64_t w : words_) h = HashCombine(h, w);
    return h;
  }

  bool operator==(const BitSignature& o) const { return words_ == o.words_; }

  /// Bytes this signature would occupy in a packed on-disk tuple key.
  uint64_t StorageBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word access for persistence.
  const std::vector<uint64_t>& raw_words() const { return words_; }
  static BitSignature FromWords(std::vector<uint64_t> words) {
    BitSignature s;
    s.words_ = std::move(words);
    return s;
  }

 private:
  std::vector<uint64_t> words_;
};

struct BitSignatureHash {
  size_t operator()(const BitSignature& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace csr

#endif  // CSR_VIEWS_SIGNATURE_H_
