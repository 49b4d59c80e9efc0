// FIR filtering on the IMC memory.

#include <gtest/gtest.h>

#include <cmath>

#include "app/fir.hpp"
#include "common/rng.hpp"

namespace bpim::app {
namespace {

macro::MemoryConfig small_mem() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 2;
  return cfg;
}

TEST(Fir, ImpulseResponseIsTheTaps) {
  macro::ImcMemory mem(small_mem());
  FirFilter f({3, -2, 5, 1}, 8);
  std::vector<std::int64_t> x(8, 0);
  x[0] = 1;
  const auto y = f.apply(mem, x);
  EXPECT_EQ(y[0], 3);
  EXPECT_EQ(y[1], -2);
  EXPECT_EQ(y[2], 5);
  EXPECT_EQ(y[3], 1);
  EXPECT_EQ(y[4], 0);
}

TEST(Fir, MatchesReferenceOnRandomSignal) {
  macro::ImcMemory mem(small_mem());
  FirFilter f({7, -3, 0, 2, -1}, 8);
  Rng rng(4);
  std::vector<std::int64_t> x(200);
  for (auto& v : x) v = static_cast<std::int64_t>(rng.uniform_u64(201)) - 100;
  const auto y = f.apply(mem, x);
  const auto ref = f.apply_reference(x);
  ASSERT_EQ(y.size(), ref.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref[i]) << i;
}

TEST(Fir, MovingAverageSmoothsAStep) {
  macro::ImcMemory mem(small_mem());
  FirFilter f({1, 1, 1, 1}, 8);
  std::vector<std::int64_t> x(12, 0);
  for (std::size_t i = 4; i < x.size(); ++i) x[i] = 20;
  const auto y = f.apply(mem, x);
  EXPECT_EQ(y[3], 0);
  EXPECT_EQ(y[4], 20);
  EXPECT_EQ(y[5], 40);
  EXPECT_EQ(y[6], 60);
  EXPECT_EQ(y[7], 80);   // fully inside the step: 4 taps x 20
  EXPECT_EQ(y[11], 80);
}

TEST(Fir, ZeroTapsSkipMemoryWork) {
  macro::ImcMemory mem(small_mem());
  FirFilter sparse({5, 0, 0, 0, 0, 0, 0, -5}, 8);
  std::vector<std::int64_t> x(64, 3);
  (void)sparse.apply(mem, x);
  const auto cycles_sparse = sparse.last_stats().cycles;
  FirFilter dense({5, 1, 1, 1, 1, 1, 1, -5}, 8);
  (void)dense.apply(mem, x);
  EXPECT_LT(cycles_sparse, dense.last_stats().cycles);
}

TEST(Fir, StatsCountMacs) {
  macro::ImcMemory mem(small_mem());
  FirFilter f({1, 2, 3}, 8);
  std::vector<std::int64_t> x(50, 1);
  (void)f.apply(mem, x);
  EXPECT_EQ(f.last_stats().macs, 3u * 50u);
  EXPECT_GT(f.last_stats().energy.si(), 0.0);
}

TEST(Fir, ValidatesTaps) {
  EXPECT_THROW(FirFilter({}, 8), std::invalid_argument);
  EXPECT_THROW(FirFilter({300}, 8), std::invalid_argument);
  EXPECT_THROW(FirFilter({1}, 0), std::invalid_argument);
}

TEST(Fir, PinnedTapsBitIdenticalAndCheaperToLoad) {
  // Streaming shape: the same filter applied block after block. Resident
  // tap rows must give exactly the re-poke outputs while only the delayed
  // streams load; a block of a different length falls back transparently.
  const std::vector<std::int64_t> taps{7, -3, 0, 5};
  const std::size_t block = 48;
  macro::ImcMemory fresh_mem(small_mem());
  engine::ExecutionEngine fresh_eng(fresh_mem);
  FirFilter fresh(taps, 8);
  macro::ImcMemory pinned_mem(small_mem());
  engine::ExecutionEngine pinned_eng(pinned_mem);
  FirFilter pinned(taps, 8, pinned_eng, block);
  EXPECT_TRUE(pinned.pinned());
  EXPECT_EQ(pinned.block_len(), block);

  bpim::Rng rng(77);
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::int64_t> x(block);
    for (auto& v : x) v = static_cast<std::int64_t>(rng.next_u64() % 200) - 100;
    const auto want = fresh.apply(fresh_eng, x);
    const auto got = pinned.apply(pinned_eng, x);
    EXPECT_EQ(want, got) << "block " << i;
    EXPECT_EQ(got, pinned.apply_reference(x));
    // The pinned filter runs fused: identical outputs, fewer cycles, the
    // chained-MAC discount accounted in fused_cycles_saved.
    EXPECT_EQ(fresh.last_stats().cycles,
              pinned.last_stats().cycles + pinned.last_stats().fused_cycles_saved);
    EXPECT_GT(pinned.last_stats().fused_cycles_saved, 0u);
    if (i > 0) {
      EXPECT_LT(pinned.last_stats().load_cycles, fresh.last_stats().load_cycles);
      EXPECT_GT(pinned.last_stats().load_cycles_saved, 0u);
    }
  }

  // Off-length block: re-poke fallback, still correct.
  std::vector<std::int64_t> odd(block / 2, 9);
  EXPECT_EQ(pinned.apply(pinned_eng, odd), pinned.apply_reference(odd));
}

}  // namespace
}  // namespace bpim::app
