#pragma once
// Dynamic bit vector used for SRAM row contents and operand words.
//
// The functional simulator is bit-exact: every row of the array and every
// peripheral latch is a BitVector. Bit 0 is the least significant bit of the
// word it encodes.
//
// Storage is packed little-endian into 64-bit words, and the word-level API
// (word/set_word, extract_bits/deposit_bits, shl1_in_fields,
// for_each_set_bit) is the substrate of the SWAR datapath: the hardware
// switches all columns in one cycle, so the simulator models that cycle
// with whole-word bitwise arithmetic instead of per-bit loops. The word
// accessors bounds-check with BPIM_DCHECK (debug builds only); the per-bit
// get/set and slice/patch keep their throwing BPIM_REQUIRE contract.
//
// Rows up to kInlineWords * 64 columns (the paper's 128-column macro and the
// 256-column bench geometry) live in inline storage, so the per-cycle
// datapath -- BL readouts, sums, select masks, write-backs -- never touches
// the heap; wider vectors fall back to one heap block. A moved-from vector is
// empty (size 0) and reusable.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/require.hpp"

namespace bpim {

class Rng;

class BitVector {
 public:
  /// Words held without a heap allocation.
  static constexpr std::size_t kInlineWords = 4;

  BitVector() = default;
  /// All-zero vector of `size` bits.
  explicit BitVector(std::size_t size) { reset(size); }
  /// Vector of `size` bits initialised from the low bits of `value`.
  BitVector(std::size_t size, std::uint64_t value) : BitVector(size) {
    BPIM_REQUIRE(fits_u64(value, size), "value does not fit in size bits");
    if (size != 0) words_[0] = value;
  }

  BitVector(const BitVector& o) { copy_from(o); }
  BitVector(BitVector&& o) noexcept { steal(o); }
  BitVector& operator=(const BitVector& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  BitVector& operator=(BitVector&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }

  /// True when `value` fits in `bits` bits. Shift-safe for every width
  /// (the seed's `value < (1ull << size)` form had to skip size >= 64,
  /// where the shift is UB); at 64 and above every u64 fits.
  [[nodiscard]] static constexpr bool fits_u64(std::uint64_t value, std::size_t bits) {
    return bits >= 64 || (value >> bits) == 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Resize to `size` bits, all zero; reuses the existing word storage.
  void reset(std::size_t size) {
    resize_storage(size);
    std::ranges::fill(words(), 0ull);
  }

  [[nodiscard]] bool get(std::size_t i) const {
    BPIM_REQUIRE(i < size_, "bit index out of range");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i, bool v) {
    BPIM_REQUIRE(i < size_, "bit index out of range");
    const std::uint64_t mask = 1ull << (i % 64);
    if (v)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  // ---- word-level access (the SWAR hot path) ------------------------------

  /// Number of 64-bit storage words.
  [[nodiscard]] std::size_t word_count() const { return words_of(size_); }

  /// 64-bit storage word k; bits past size() in the last word are zero.
  [[nodiscard]] std::uint64_t word(std::size_t k) const {
    BPIM_DCHECK(k < word_count(), "word index out of range");
    return words_[k];
  }

  /// Overwrite storage word k. Bits past size() are masked off.
  void set_word(std::size_t k, std::uint64_t w) {
    BPIM_DCHECK(k < word_count(), "word index out of range");
    words_[k] = w;
    if (k + 1 == word_count()) trim();
  }

  /// Bits [pos, pos+len) as a u64 (len <= 64), crossing word boundaries.
  [[nodiscard]] std::uint64_t extract_bits(std::size_t pos, std::size_t len) const {
    BPIM_DCHECK(len <= 64 && pos + len <= size_, "extract_bits out of range");
    if (len == 0) return 0;
    const std::size_t k = pos / 64;
    const std::size_t off = pos % 64;
    std::uint64_t v = words_[k] >> off;
    if (off + len > 64) v |= words_[k + 1] << (64 - off);
    return len == 64 ? v : v & ((1ull << len) - 1);
  }

  /// Overwrite bits [pos, pos+len) with the low len bits of `value`.
  void deposit_bits(std::size_t pos, std::size_t len, std::uint64_t value) {
    BPIM_DCHECK(len <= 64 && pos + len <= size_, "deposit_bits out of range");
    if (len == 0) return;
    const std::uint64_t m = len == 64 ? ~0ull : (1ull << len) - 1;
    value &= m;
    const std::size_t k = pos / 64;
    const std::size_t off = pos % 64;
    words_[k] = (words_[k] & ~(m << off)) | (value << off);
    if (off + len > 64) {
      const std::uint64_t mh = (1ull << (off + len - 64)) - 1;
      words_[k + 1] = (words_[k + 1] & ~mh) | (value >> (64 - off));
    }
  }

  /// Call fn(index) for every set bit, in ascending index order.
  template <class F>
  void for_each_set_bit(F&& fn) const {
    for (std::size_t k = 0, n = word_count(); k < n; ++k) {
      std::uint64_t w = words_[k];
      while (w != 0) {
        fn(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  void fill(bool v) {
    std::ranges::fill(words(), v ? ~0ull : 0ull);
    trim();
  }

  void randomize(Rng& rng);

  /// Low 64 bits as an integer (vector may be shorter than 64 bits).
  [[nodiscard]] std::uint64_t to_u64() const {
    return size_ == 0 ? 0 : words_[0];
  }

  /// Bits [pos, pos+len) as a new vector.
  [[nodiscard]] BitVector slice(std::size_t pos, std::size_t len) const {
    BPIM_REQUIRE(pos + len <= size_, "slice out of range");
    BitVector out(len);
    for (std::size_t o = 0; o < len; o += 64) {
      const std::size_t n = len - o < 64 ? len - o : 64;
      out.deposit_bits(o, n, extract_bits(pos + o, n));
    }
    return out;
  }

  /// Overwrites bits [pos, pos+src.size()) with src.
  void patch(std::size_t pos, const BitVector& src) {
    BPIM_REQUIRE(pos + src.size() <= size_, "patch out of range");
    for (std::size_t o = 0; o < src.size(); o += 64) {
      const std::size_t n = src.size() - o < 64 ? src.size() - o : 64;
      deposit_bits(pos + o, n, src.extract_bits(o, n));
    }
  }

  /// Logical shift left by one (bit i+1 <- bit i, bit 0 <- 0), in place.
  void shl1() {
    std::uint64_t carry = 0;
    for (auto& w : words()) {
      const std::uint64_t next_carry = w >> 63;
      w = (w << 1) | carry;
      carry = next_carry;
    }
    trim();
  }

  /// Shift left by one within every `field`-bit field (fields start at bit
  /// 0): bit k*field of each field becomes 0, the field's MSB is dropped.
  /// `field` must divide size(). This is the write-back propagation path of
  /// the peripheral (<<1 per precision word) as one word-parallel op.
  void shl1_in_fields(std::size_t field) {
    BPIM_REQUIRE(field >= 1 && size_ % field == 0, "field width must divide the vector size");
    if (field <= 64 && 64 % field == 0) {
      // Fields never straddle a word, so no cross-word carry exists and one
      // mask clears every field-LSB position.
      const std::uint64_t lsb_mask = periodic_mask(field);
      for (auto& w : words()) w = (w << 1) & ~lsb_mask;
      trim();
      return;
    }
    // Fields straddle words: a whole-vector shift has the right intra-field
    // behaviour; only the field-LSB positions need clearing afterwards.
    shl1();
    for (std::size_t p = 0; p < size_; p += field) set(p, false);
  }

  /// Word with one bit set every `period` positions (bit 0, period, ...).
  /// `period` must divide 64.
  [[nodiscard]] static std::uint64_t periodic_mask(std::size_t period) {
    BPIM_DCHECK(period >= 1 && period <= 64 && 64 % period == 0, "period must divide 64");
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < 64; i += period) m |= 1ull << i;
    return m;
  }

  [[nodiscard]] std::size_t popcount() const;

  BitVector& operator&=(const BitVector& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a & b; }); }
  BitVector& operator|=(const BitVector& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a | b; }); }
  BitVector& operator^=(const BitVector& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a ^ b; }); }

  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }

  [[nodiscard]] BitVector operator~() const {
    BitVector out(size_);
    std::ranges::transform(words(), out.words_, [](std::uint64_t w) { return ~w; });
    out.trim();
    return out;
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && std::ranges::equal(a.words(), b.words());
  }

  /// MSB-first binary string, e.g. "1010" for the 4-bit value 10.
  [[nodiscard]] std::string to_string() const;

 private:
  template <class F>
  BitVector& apply(const BitVector& o, F f) {
    BPIM_REQUIRE(size_ == o.size_, "size mismatch in bitwise op");
    std::ranges::transform(words(), o.words(), words_, f);
    trim();
    return *this;
  }

  void trim() {
    const std::size_t rem = size_ % 64;
    if (rem != 0) words_[size_ / 64] &= (~0ull >> (64 - rem));
  }

  [[nodiscard]] static constexpr std::size_t words_of(std::size_t bits) { return (bits + 63) / 64; }
  [[nodiscard]] std::span<std::uint64_t> words() { return {words_, word_count()}; }
  [[nodiscard]] std::span<const std::uint64_t> words() const { return {words_, word_count()}; }

  /// Point words_ at storage for `size` bits (contents unspecified): inline
  /// up to kInlineWords, else a heap block, kept while it is large enough.
  void resize_storage(std::size_t size) {
    const std::size_t n = words_of(size);
    if (n > kInlineWords && n > heap_cap_) {
      heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
      words_ = heap_.get();
      heap_cap_ = n;
    } else if (n <= kInlineWords && heap_) {
      release();
    }
    size_ = size;
  }

  void copy_from(const BitVector& o) {
    resize_storage(o.size_);
    std::ranges::copy(o.words(), words_);
  }

  /// Take o's contents and leave o empty: a heap block changes owner, inline
  /// words are copied.
  void steal(BitVector& o) noexcept {
    size_ = o.size_;
    if (o.heap_) {
      heap_ = std::move(o.heap_);
      words_ = heap_.get();
      heap_cap_ = o.heap_cap_;
      o.words_ = o.inline_;
      o.heap_cap_ = 0;
    } else {
      std::copy_n(o.inline_, word_count(), inline_);
    }
    o.size_ = 0;
  }

  /// Return to empty inline storage, freeing any heap block.
  void release() noexcept {
    heap_.reset();
    words_ = inline_;
    heap_cap_ = 0;
    size_ = 0;
  }

  std::size_t size_ = 0;
  std::size_t heap_cap_ = 0;  ///< words in the heap block; 0 while inline
  std::unique_ptr<std::uint64_t[]> heap_;
  std::uint64_t* words_ = inline_;
  std::uint64_t inline_[kInlineWords] = {};
};

}  // namespace bpim
