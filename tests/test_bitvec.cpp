// BitVector: the bit-exact substrate under every row and latch.

#include <gtest/gtest.h>

#include <utility>

#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace bpim {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVector, ConstructsZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ValueConstructorLittleEndian) {
  BitVector v(8, 0b1010);
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(1));
  EXPECT_FALSE(v.get(2));
  EXPECT_TRUE(v.get(3));
  EXPECT_EQ(v.to_u64(), 0b1010u);
}

TEST(BitVector, ValueMustFit) {
  EXPECT_THROW(BitVector(3, 8), std::invalid_argument);
  EXPECT_NO_THROW(BitVector(3, 7));
}

TEST(BitVector, ValueFitCheckIsShiftSafeAtWordWidth) {
  // The check must hold at size == 64 too (any u64 fits; `1ull << 64` is UB
  // and must not be evaluated) and keep rejecting just below it.
  EXPECT_NO_THROW(BitVector(64, ~0ull));
  EXPECT_THROW(BitVector(63, ~0ull), std::invalid_argument);
  EXPECT_NO_THROW(BitVector(63, ~0ull >> 1));
  EXPECT_TRUE(BitVector::fits_u64(~0ull, 64));
  EXPECT_FALSE(BitVector::fits_u64(~0ull, 63));
}

TEST(BitVector, SetGetAcrossWordBoundary) {
  BitVector v(128);
  v.set(63, true);
  v.set(64, true);
  v.set(127, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(127));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(16);
  EXPECT_THROW((void)v.get(16), std::invalid_argument);
  EXPECT_THROW(v.set(16, true), std::invalid_argument);
}

TEST(BitVector, FillAndNotRespectSizeMask) {
  BitVector v(70);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 70u);
  const BitVector inv = ~v;
  EXPECT_EQ(inv.popcount(), 0u);
}

TEST(BitVector, BitwiseOps) {
  BitVector a(8, 0b1100);
  BitVector b(8, 0b1010);
  EXPECT_EQ((a & b).to_u64(), 0b1000u);
  EXPECT_EQ((a | b).to_u64(), 0b1110u);
  EXPECT_EQ((a ^ b).to_u64(), 0b0110u);
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(8);
  BitVector b(9);
  EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(BitVector, Shl1AcrossWords) {
  BitVector v(128);
  v.set(63, true);
  v.shl1();
  EXPECT_FALSE(v.get(63));
  EXPECT_TRUE(v.get(64));
  // MSB falls off the end.
  v.fill(false);
  v.set(127, true);
  v.shl1();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SliceAndPatch) {
  BitVector v(32, 0xABCDu);
  const BitVector nib = v.slice(4, 4);
  EXPECT_EQ(nib.to_u64(), 0xCu);
  BitVector w(32);
  w.patch(8, nib);
  EXPECT_EQ(w.to_u64(), 0xC00u);
  EXPECT_THROW(v.slice(30, 4), std::invalid_argument);
  EXPECT_THROW(w.patch(30, nib), std::invalid_argument);
}

TEST(BitVector, ToStringMsbFirst) {
  BitVector v(4, 0b0110);
  EXPECT_EQ(v.to_string(), "0110");
}

TEST(BitVector, EqualityIncludesSize) {
  EXPECT_EQ(BitVector(8, 5), BitVector(8, 5));
  EXPECT_FALSE(BitVector(8, 5) == BitVector(9, 5));
  EXPECT_FALSE(BitVector(8, 5) == BitVector(8, 6));
}

TEST(BitVector, WordAccessMasksPastSize) {
  BitVector v(70);
  EXPECT_EQ(v.word_count(), 2u);
  v.set_word(0, ~0ull);
  v.set_word(1, ~0ull);  // only bits 64..69 stick
  EXPECT_EQ(v.word(0), ~0ull);
  EXPECT_EQ(v.word(1), 0x3Full);
  EXPECT_EQ(v.popcount(), 70u);
}

TEST(BitVector, ExtractDepositRoundTripAcrossWordBoundary) {
  Rng rng(42);
  BitVector v(200);
  v.randomize(rng);
  for (const std::size_t pos : {0u, 7u, 40u, 60u, 63u, 64u, 120u, 136u}) {
    for (const std::size_t len : {1u, 8u, 17u, 33u, 64u}) {
      if (pos + len > v.size()) continue;
      // extract agrees with per-bit reads
      std::uint64_t ref = 0;
      for (std::size_t i = 0; i < len; ++i)
        ref |= static_cast<std::uint64_t>(v.get(pos + i)) << i;
      EXPECT_EQ(v.extract_bits(pos, len), ref) << pos << "," << len;
      // deposit followed by extract round-trips and touches nothing else
      BitVector w = v;
      const std::uint64_t value = rng.next_u64() & (len == 64 ? ~0ull : (1ull << len) - 1);
      w.deposit_bits(pos, len, value);
      EXPECT_EQ(w.extract_bits(pos, len), value) << pos << "," << len;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i < pos || i >= pos + len) {
          ASSERT_EQ(w.get(i), v.get(i)) << pos << "," << len;
        }
      }
    }
  }
}

TEST(BitVector, DepositIgnoresHighBitsOfValue) {
  BitVector v(32);
  v.deposit_bits(4, 4, 0xFFull);
  EXPECT_EQ(v.to_u64(), 0xF0ull);
}

TEST(BitVector, SlicePatchMatchPerBitAcrossWordBoundaries) {
  Rng rng(9);
  BitVector v(170);
  v.randomize(rng);
  const BitVector s = v.slice(59, 90);
  for (std::size_t i = 0; i < 90; ++i) ASSERT_EQ(s.get(i), v.get(59 + i));
  BitVector w(170);
  w.randomize(rng);
  BitVector patched = w;
  patched.patch(33, s);
  for (std::size_t i = 0; i < 170; ++i)
    ASSERT_EQ(patched.get(i), (i >= 33 && i < 123) ? s.get(i - 33) : w.get(i));
}

TEST(BitVector, Shl1InFieldsMatchesPerBitReference) {
  Rng rng(11);
  for (const std::size_t width : {64u, 96u, 128u, 130u}) {
    for (const std::size_t field : {1u, 2u, 8u, 16u, 64u, 5u, 13u, 65u}) {
      if (width % field != 0) continue;
      BitVector v(width);
      v.randomize(rng);
      BitVector ref(width);
      for (std::size_t p = 0; p < width; ++p)
        if (p % field != 0) ref.set(p, v.get(p - 1));
      BitVector fast = v;
      fast.shl1_in_fields(field);
      EXPECT_EQ(fast, ref) << "width=" << width << " field=" << field;
    }
  }
}

TEST(BitVector, Shl1InFieldsRejectsNonDividingField) {
  BitVector v(96);
  EXPECT_THROW(v.shl1_in_fields(7), std::invalid_argument);
}

TEST(BitVector, ForEachSetBitVisitsAscending) {
  BitVector v(140);
  for (const std::size_t i : {0u, 5u, 63u, 64u, 100u, 139u}) v.set(i, true);
  std::vector<std::size_t> seen;
  v.for_each_set_bit([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 5, 63, 64, 100, 139}));
}

TEST(BitVector, ResetReusesStorageAndZeroes) {
  BitVector v(128);
  v.fill(true);
  v.reset(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.popcount(), 0u);
  v.reset(256);
  EXPECT_EQ(v.size(), 256u);
  EXPECT_EQ(v.popcount(), 0u);
}

// Storage modes: rows up to kInlineWords * 64 bits live inline, wider ones
// on the heap. Every copy/move/reset must behave the same on both sides of
// that boundary and across it.
constexpr std::size_t kModeSizes[] = {0, 64, 128, 256, 257, 1000};

BitVector random_vector(std::size_t size, Rng& rng) {
  BitVector v(size);
  v.randomize(rng);
  return v;
}

TEST(BitVectorStorage, InlineCapacityCoversThePaperAndBenchRows) {
  EXPECT_EQ(BitVector::kInlineWords * 64, 256u);
}

TEST(BitVectorStorage, CopyAcrossModes) {
  Rng rng(0xC0);
  for (const std::size_t from : kModeSizes) {
    const BitVector src = random_vector(from, rng);
    const BitVector src_before = src;
    const BitVector constructed(src);
    EXPECT_EQ(constructed, src) << from;
    for (const std::size_t to : kModeSizes) {
      BitVector dst = random_vector(to, rng);
      dst = src;
      EXPECT_EQ(dst, src) << from << " -> " << to;
      EXPECT_EQ(src, src_before) << "copy changed its source, " << from << " -> " << to;
    }
  }
}

TEST(BitVectorStorage, CopiesAreIndependent) {
  Rng rng(0xC1);
  for (const std::size_t size : {64u, 256u, 257u, 1000u}) {
    const BitVector src = random_vector(size, rng);
    BitVector copy = src;
    copy.set(size - 1, !copy.get(size - 1));
    EXPECT_NE(copy, src) << size;
    EXPECT_EQ(copy.get(size - 1), !src.get(size - 1)) << size;
  }
}

TEST(BitVectorStorage, MoveAcrossModesLeavesSourceEmptyAndReusable) {
  Rng rng(0x30);
  for (const std::size_t from : kModeSizes) {
    for (const std::size_t to : kModeSizes) {
      BitVector src = random_vector(from, rng);
      const BitVector expect = src;
      BitVector dst = random_vector(to, rng);
      dst = std::move(src);
      EXPECT_EQ(dst, expect) << from << " -> " << to;
      EXPECT_EQ(src.size(), 0u) << from << " -> " << to;  // NOLINT(bugprone-use-after-move)
      EXPECT_TRUE(src.empty());                            // NOLINT(bugprone-use-after-move)
      src.reset(to);  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(src.size(), to);
      EXPECT_EQ(src.popcount(), 0u);
      if (to != 0) {
        src.set(to - 1, true);
        EXPECT_EQ(src.popcount(), 1u);
      }
    }
    BitVector src = random_vector(from, rng);
    const BitVector expect = src;
    const BitVector constructed(std::move(src));
    EXPECT_EQ(constructed, expect) << from;
    EXPECT_EQ(src.size(), 0u) << from;  // NOLINT(bugprone-use-after-move)
  }
}

TEST(BitVectorStorage, SelfAssignmentKeepsContents) {
  Rng rng(0x5E1F);
  for (const std::size_t size : kModeSizes) {
    BitVector v = random_vector(size, rng);
    const BitVector expect = v;
    BitVector& alias = v;
    v = alias;
    EXPECT_EQ(v, expect) << size;
    v = std::move(alias);
    EXPECT_EQ(v, expect) << size;
  }
}

TEST(BitVectorStorage, ResetGrowsAndShrinksAcrossTheBoundary) {
  BitVector v;
  for (const std::size_t size : {64u, 1000u, 128u, 257u, 0u, 256u, 1000u, 257u, 64u}) {
    v.fill(true);
    v.reset(size);
    EXPECT_EQ(v.size(), size);
    EXPECT_EQ(v.popcount(), 0u) << size;
    EXPECT_EQ(v, BitVector(size)) << size;
    if (size != 0) {
      v.set(size - 1, true);
      v.set(0, true);
      EXPECT_EQ(v.popcount(), size == 1 ? 1u : 2u);
    }
  }
}

TEST(BitVectorStorage, EqualityAcrossModes) {
  // Same low 256 bits, one bit apart in size: inline vs heap never compare
  // equal; equal contents compare equal however the vector got them.
  Rng rng(0xE0);
  const BitVector wide = random_vector(257, rng);
  BitVector narrow = wide.slice(0, 256);
  BitVector regrown(257);
  regrown.patch(0, narrow);
  regrown.set(256, wide.get(256));
  EXPECT_EQ(regrown, wide);
  EXPECT_NE(narrow, wide);
  BitVector reused(1000);  // heap block, then copied into at inline size
  reused = narrow;
  EXPECT_EQ(reused, narrow);
  reused = wide;  // and back up to a heap size
  EXPECT_EQ(reused, wide);
}

TEST(BitVector, RandomizeIsDeterministicPerSeed) {
  Rng r1(7), r2(7), r3(8);
  BitVector a(200), b(200), c(200);
  a.randomize(r1);
  b.randomize(r2);
  c.randomize(r3);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  // Random 200-bit vector has ~100 set bits; 5-sigma band.
  EXPECT_GT(a.popcount(), 60u);
  EXPECT_LT(a.popcount(), 140u);
}

}  // namespace
}  // namespace bpim
