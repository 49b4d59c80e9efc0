// ImcMacro: the left-shift bit-parallel multiplication (Fig 5) with
// reconfigurable precision (Fig 6).

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "macro/imc_macro.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;

class MacroMult : public ::testing::TestWithParam<unsigned> {
 protected:
  ImcMacro macro_{MacroConfig{}};
  Rng rng_{GetParam() * 104729u};
};

TEST_P(MacroMult, PaperWorkedExample) {
  // Fig 5 walks 1010 x 1011 = 0110 1110 (10 * 11 = 110).
  const unsigned bits = GetParam();
  if (bits < 4) GTEST_SKIP() << "example needs 4-bit operands";
  macro_.poke_mult_operand(0, 0, bits, 10);
  macro_.poke_mult_operand(1, 0, bits, 11);
  const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_EQ(macro_.peek_mult_product(prod, 0, bits), 110u);
}

TEST_P(MacroMult, CycleCountIsNPlusTwo) {
  const unsigned bits = GetParam();
  macro_.poke_mult_operand(0, 0, bits, 1);
  macro_.poke_mult_operand(1, 0, bits, 1);
  macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_EQ(macro_.last_op().cycles, bits + 2);  // Table 1: MULT = N+2
}

TEST_P(MacroMult, AllUnitsMultiplyIndependently) {
  const unsigned bits = GetParam();
  const std::size_t units = macro_.mult_units_per_row(bits);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> a(units), b(units);
  for (std::size_t u = 0; u < units; ++u) {
    a[u] = rng_.next_u64() & mask;
    b[u] = rng_.next_u64() & mask;
    macro_.poke_mult_operand(0, u, bits, a[u]);
    macro_.poke_mult_operand(1, u, bits, b[u]);
  }
  const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  for (std::size_t u = 0; u < units; ++u)
    EXPECT_EQ(macro_.peek_mult_product(prod, u, bits), a[u] * b[u]) << "unit " << u;
}

TEST_P(MacroMult, RandomizedAgainstReference) {
  const unsigned bits = GetParam();
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  for (int iter = 0; iter < 40; ++iter) {
    const std::uint64_t a = rng_.next_u64() & mask;
    const std::uint64_t b = rng_.next_u64() & mask;
    macro_.poke_mult_operand(0, 0, bits, a);
    macro_.poke_mult_operand(1, 0, bits, b);
    const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    EXPECT_EQ(macro_.peek_mult_product(prod, 0, bits), a * b) << a << " * " << b;
  }
}

TEST_P(MacroMult, EdgeOperands) {
  const unsigned bits = GetParam();
  const std::uint64_t top = (bits >= 64 ? ~0ull : (1ull << bits) - 1);
  const std::uint64_t cases[][2] = {
      {0, 0}, {0, top}, {top, 0}, {1, top}, {top, 1}, {top, top}};
  for (const auto& c : cases) {
    macro_.poke_mult_operand(0, 0, bits, c[0]);
    macro_.poke_mult_operand(1, 0, bits, c[1]);
    const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    EXPECT_EQ(macro_.peek_mult_product(prod, 0, bits), c[0] * c[1])
        << c[0] << " * " << c[1] << " @ " << bits << " bits";
  }
}

TEST_P(MacroMult, ProductPersistsInAccumulatorRow) {
  const unsigned bits = GetParam();
  macro_.poke_mult_operand(0, 0, bits, 3);
  macro_.poke_mult_operand(1, 0, bits, 2);
  const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_EQ(macro_.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)), prod);
}

TEST_P(MacroMult, BulkProductExtractionMatchesPerUnit) {
  const unsigned bits = GetParam();
  const std::size_t units = macro_.mult_units_per_row(bits);
  const std::uint64_t mask = (1ull << bits) - 1;
  for (std::size_t u = 0; u < units; ++u) {
    macro_.poke_mult_operand(0, u, bits, rng_.next_u64() & mask);
    macro_.poke_mult_operand(1, u, bits, rng_.next_u64() & mask);
  }
  const BitVector prod = macro_.mult_rows(RowRef::main(0), RowRef::main(1), bits);
  std::vector<std::uint64_t> all(units), head(units / 2);
  macro_.peek_mult_products(prod, bits, all);
  macro_.peek_mult_products(prod, bits, head);
  for (std::size_t u = 0; u < units; ++u) {
    EXPECT_EQ(all[u], macro_.peek_mult_product(prod, u, bits)) << "unit " << u;
    if (u < head.size()) {
      EXPECT_EQ(head[u], all[u]) << "unit " << u;
    }
  }
  std::vector<std::uint64_t> too_many(units + 1);
  EXPECT_THROW(macro_.peek_mult_products(prod, bits, too_many), std::invalid_argument);
  EXPECT_THROW(macro_.peek_mult_products(BitVector(64), bits, head), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Precisions, MacroMult, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(MacroMultLayout, PrecisionChangesUnitCountOnSameHardware) {
  // The Fig 6 reconfiguration claim: one macro, different unit counts.
  ImcMacro m{MacroConfig{}};
  EXPECT_EQ(m.mult_units_per_row(2), 32u);
  EXPECT_EQ(m.mult_units_per_row(4), 16u);
  EXPECT_EQ(m.mult_units_per_row(8), 8u);
  EXPECT_EQ(m.mult_units_per_row(16), 4u);
  EXPECT_EQ(m.mult_units_per_row(32), 2u);
}

TEST(MacroMultLayout, MixedPrecisionBackToBack) {
  // Run an 8-bit multiply, then re-configure to 2-bit on the same macro.
  ImcMacro m{MacroConfig{}};
  m.poke_mult_operand(0, 0, 8, 200);
  m.poke_mult_operand(1, 0, 8, 100);
  const BitVector p8 = m.mult_rows(array::RowRef::main(0), array::RowRef::main(1), 8);
  EXPECT_EQ(m.peek_mult_product(p8, 0, 8), 20000u);

  m.poke_mult_operand(2, 0, 2, 3);
  m.poke_mult_operand(3, 0, 2, 3);
  const BitVector p2 = m.mult_rows(array::RowRef::main(2), array::RowRef::main(3), 2);
  EXPECT_EQ(m.peek_mult_product(p2, 0, 2), 9u);
}

}  // namespace
}  // namespace bpim::macro
