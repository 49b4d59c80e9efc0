// Read-disturb injection: why the short-WL + boost scheme matters.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "macro/imc_macro.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

MacroConfig scheme_cfg(WlScheme s, bool inject = true) {
  MacroConfig cfg;
  cfg.wl_scheme = s;
  cfg.inject_disturb = inject;
  cfg.seed = 99;
  return cfg;
}

TEST(Disturb, ModelRatesOrdered) {
  const auto prop = DisturbModel::for_scheme(WlScheme::ShortPulseBoost);
  const auto wlud = DisturbModel::for_scheme(WlScheme::Wlud);
  const auto unprotected = DisturbModel::for_scheme(WlScheme::FullSwingLong);
  EXPECT_DOUBLE_EQ(prop.flip_probability, 0.0);
  EXPECT_GT(wlud.flip_probability, 0.0);
  EXPECT_LT(wlud.flip_probability, 1e-4);  // iso-ADM decade
  EXPECT_GT(unprotected.flip_probability, 0.1);
}

TEST(Disturb, ProposedSchemePreservesDataOverManyComputes) {
  ImcMacro m{scheme_cfg(WlScheme::ShortPulseBoost)};
  Rng rng(1);
  BitVector r0(128), r1(128);
  r0.randomize(rng);
  r1.randomize(rng);
  m.poke_row(0, r0);
  m.poke_row(1, r1);
  for (int i = 0; i < 200; ++i) m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
  EXPECT_EQ(m.disturb_flips(), 0u);
  EXPECT_EQ(m.peek_row(0), r0);
  EXPECT_EQ(m.peek_row(1), r1);
}

TEST(Disturb, UnprotectedSchemeCorruptsComplementaryColumns) {
  ImcMacro m{scheme_cfg(WlScheme::FullSwingLong)};
  BitVector r0(128), r1(128);
  r0.fill(true);   // every column complementary: r0=1, r1=0
  m.poke_row(0, r0);
  m.poke_row(1, r1);
  m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
  EXPECT_GT(m.disturb_flips(), 20u);  // ~35% of 256 vulnerable cells
  EXPECT_FALSE(m.peek_row(0) == r0 && m.peek_row(1) == r1);
}

TEST(Disturb, MatchingColumnsAreSafeEvenUnprotected) {
  // Columns where both cells store the same value have no victim (no cell
  // fights a BL discharged by the other row).
  ImcMacro m{scheme_cfg(WlScheme::FullSwingLong)};
  BitVector ones(128);
  ones.fill(true);
  m.poke_row(0, ones);
  m.poke_row(1, ones);
  for (int i = 0; i < 50; ++i) m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
  EXPECT_EQ(m.disturb_flips(), 0u);
}

TEST(Disturb, InjectionOffMeansNoFlips) {
  ImcMacro m{scheme_cfg(WlScheme::FullSwingLong, /*inject=*/false)};
  BitVector r0(128);
  r0.fill(true);
  m.poke_row(0, r0);
  for (int i = 0; i < 50; ++i) m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
  EXPECT_EQ(m.disturb_flips(), 0u);
  EXPECT_EQ(m.peek_row(0), r0);
}

TEST(Disturb, WludRateIsRareButNonzeroInBulk) {
  // At 2.25e-5 per vulnerable cell per compute, ~128 vulnerable columns x
  // 2 cells x 2000 computes ~= 11 expected flips.
  ImcMacro m{scheme_cfg(WlScheme::Wlud)};
  BitVector r0(128);
  r0.fill(true);
  m.poke_row(0, r0);
  m.poke_row(1, BitVector(128));
  std::uint64_t flips = 0;
  for (int i = 0; i < 2000; ++i) {
    m.poke_row(0, r0);  // restore between stress rounds
    m.poke_row(1, BitVector(128));
    m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
    flips = m.disturb_flips();
  }
  EXPECT_GT(flips, 0u);
  EXPECT_LT(flips, 60u);
}

TEST(Disturb, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    MacroConfig cfg = scheme_cfg(WlScheme::FullSwingLong);
    cfg.seed = seed;
    ImcMacro m{cfg};
    BitVector r0(128);
    r0.fill(true);
    m.poke_row(0, r0);
    m.poke_row(1, BitVector(128));
    m.logic_rows(LogicFn::And, RowRef::main(0), RowRef::main(1));
    return m.disturb_flips();
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(Disturb, UnprotectedMultFlipsCellsDeterministically) {
  // Every MULT iteration senses D1 (the masked multiplicand) against D2 (the
  // accumulator), so all-ones multiplicand halves over the zero-initialised
  // accumulator are complementary columns: the add-shift loop replays cycle
  // by cycle and disturb lands between iterations. Same seed, same flips,
  // same D2.
  auto run = [](std::uint64_t seed) {
    MacroConfig cfg = scheme_cfg(WlScheme::FullSwingLong);
    cfg.seed = seed;
    ImcMacro m{cfg};
    const unsigned bits = 8;
    for (std::size_t u = 0; u < m.mult_units_per_row(bits); ++u) {
      m.poke_mult_operand(0, u, bits, 0xFF);
      m.poke_mult_operand(1, u, bits, 0xA5);
    }
    const BitVector d2 = m.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    return std::pair{d2, m.disturb_flips()};
  };
  const auto [d2, flips] = run(7);
  EXPECT_GT(flips, 0u);
  const auto [d2_again, flips_again] = run(7);
  EXPECT_EQ(d2_again, d2);
  EXPECT_EQ(flips_again, flips);
}

TEST(Disturb, ProposedSchemeMultIsExactUnderInjection) {
  // Injection on, flip probability zero: products are the host products
  // and no cell flips.
  ImcMacro m{scheme_cfg(WlScheme::ShortPulseBoost)};
  Rng rng(11);
  const unsigned bits = 8;
  const std::size_t units = m.mult_units_per_row(bits);
  std::vector<std::uint64_t> a(units), b(units);
  for (std::size_t u = 0; u < units; ++u) {
    a[u] = rng.next_u64() & 0xFF;
    b[u] = rng.next_u64() & 0xFF;
    m.poke_mult_operand(0, u, bits, a[u]);
    m.poke_mult_operand(1, u, bits, b[u]);
  }
  const BitVector product = m.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  for (std::size_t u = 0; u < units; ++u)
    EXPECT_EQ(m.peek_mult_product(product, u, bits), a[u] * b[u]) << "unit=" << u;
  EXPECT_EQ(m.disturb_flips(), 0u);
}

}  // namespace
}  // namespace bpim::macro
