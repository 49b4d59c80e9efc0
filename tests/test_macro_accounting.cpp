// Per-component energy breakdown and charged standard SRAM accesses, plus
// the conservation law of the unified execution model: the controller's
// account is the macro ledger, and macro::CostModel must price every
// executed instruction -- and so every program -- to it EXACTLY: integer
// cycles, bitwise-identical energy doubles.

#include <gtest/gtest.h>

#include "energy/energy_model.hpp"
#include "macro/cost_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "priced_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using energy::Component;

constexpr std::array<Component, 8> kAllComponents{
    Component::DualWlComputeMain, Component::DualWlComputeNear, Component::SingleWlRead,
    Component::FaLogic,           Component::Inverter,          Component::WriteBackNear,
    Component::WriteBackFull,     Component::FlipFlop};

double breakdown_sum(const ImcMacro& m) {
  double s = 0.0;
  for (const auto c : kAllComponents) s += m.component_energy(c).si();
  return s;
}

TEST(MacroAccounting, ComponentsSumToTotalAcrossMixedOps) {
  ImcMacro m{MacroConfig{}};
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  m.sub_rows(RowRef::main(2), RowRef::main(3), 8);
  m.mult_rows(RowRef::main(4), RowRef::main(5), 4);
  m.unary_row(Op::Shift, RowRef::main(6), RowRef::dummy(0), 8);
  EXPECT_NEAR(breakdown_sum(m), m.total_energy().si(), 1e-22);
}

TEST(MacroAccounting, AddTouchesOnlyComputeAndFa) {
  ImcMacro m{MacroConfig{}};
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_GT(m.component_energy(Component::DualWlComputeMain).si(), 0.0);
  EXPECT_GT(m.component_energy(Component::FaLogic).si(), 0.0);
  EXPECT_DOUBLE_EQ(m.component_energy(Component::WriteBackNear).si(), 0.0);
  EXPECT_DOUBLE_EQ(m.component_energy(Component::WriteBackFull).si(), 0.0);
  EXPECT_DOUBLE_EQ(m.component_energy(Component::SingleWlRead).si(), 0.0);
  EXPECT_DOUBLE_EQ(m.component_energy(Component::FlipFlop).si(), 0.0);
}

TEST(MacroAccounting, MultUsesNearComputeAndFlipFlops) {
  ImcMacro m{MacroConfig{}};
  m.mult_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_GT(m.component_energy(Component::DualWlComputeNear).si(), 0.0);
  EXPECT_GT(m.component_energy(Component::FlipFlop).si(), 0.0);
  EXPECT_GT(m.component_energy(Component::WriteBackNear).si(), 0.0);
  EXPECT_GT(m.component_energy(Component::SingleWlRead).si(), 0.0);  // B load + A copy
  EXPECT_DOUBLE_EQ(m.component_energy(Component::DualWlComputeMain).si(), 0.0);
}

TEST(MacroAccounting, ResetClearsBreakdown) {
  ImcMacro m{MacroConfig{}};
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  m.reset_counters();
  EXPECT_DOUBLE_EQ(breakdown_sum(m), 0.0);
}

TEST(MacroAccounting, ProgramTotalsConserveLedgerTotalsExactly) {
  // One instruction of every kind; each is priced by the CostModel to its
  // ledger entry, and the account run() returns equals the macro's ledger
  // totals: cycles as integers, energy bitwise.
  ImcMacro m{MacroConfig{}};
  MacroController ctl(m, VerifyMode::VerifyFirst);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);
  p.sub(RowRef::main(2), RowRef::main(3), 8);
  p.mult(RowRef::main(4), RowRef::main(5), 4);
  p.add_shift(RowRef::main(6), RowRef::main(7), 8, RowRef::dummy(ImcMacro::kDummyAccum));
  p.unary(Op::Not, RowRef::main(8), RowRef::dummy(ImcMacro::kDummyOperand), 8);
  p.unary(Op::Shift, RowRef::main(9), RowRef::dummy(ImcMacro::kDummyOperand), 8);
  p.logic(periph::LogicFn::Xor, RowRef::main(10), RowRef::main(11));
  std::vector<Extract> records(p.size());
  const ProgramStats stats = ctl.run(p, {}, records);
  expect_priced_as_executed(m.config(), p, records);
  EXPECT_EQ(stats.instructions, 7u);
  EXPECT_EQ(stats.cycles, m.total_cycles());
  EXPECT_EQ(stats.energy.si(), m.total_energy().si());  // bitwise, not NEAR
  EXPECT_EQ(stats.fused_cycles_saved, 0u);

  // The static program_cost agrees with the executed account in full.
  const CostModel cost(m.config());
  const ProgramStats priced = cost.program_cost(p);
  EXPECT_EQ(priced.instructions, stats.instructions);
  EXPECT_EQ(priced.cycles, stats.cycles);
  EXPECT_EQ(priced.energy.si(), stats.energy.si());
  EXPECT_EQ(priced.elapsed.si(), stats.elapsed.si());
}

TEST(MacroAccounting, FusedChainTotalsConserveLedgerTotals) {
  // The chained-MAC discounts change both cycles and energy (skipped D1
  // staging); the per-instruction pricing must track the executed datapath
  // through every discount combination.
  ImcMacro m{MacroConfig{}};
  MacroController ctl(m, VerifyMode::VerifyFirst);
  Program p;
  p.mult(RowRef::main(0), RowRef::main(1), 8);  // full price (N + 2)
  p.mult(RowRef::main(0), RowRef::main(3), 8);  // pipelined + D1-staged (-2)
  p.mult(RowRef::main(4), RowRef::main(5), 8);  // pipelined only (-1)
  std::vector<Extract> records(p.size());
  const ProgramStats stats = ctl.run(p, {}, records);
  expect_priced_as_executed(m.config(), p, records);
  EXPECT_TRUE(records[1].plan.d1_staged && records[1].plan.pipelined);
  EXPECT_TRUE(!records[2].plan.d1_staged && records[2].plan.pipelined);
  EXPECT_EQ(stats.cycles, m.total_cycles());
  EXPECT_EQ(stats.energy.si(), m.total_energy().si());
  EXPECT_EQ(stats.fused_cycles_saved, 3u);
  EXPECT_EQ(stats.cycles, 3u * 10u - 3u);

  const CostModel cost(m.config());
  const ProgramStats priced = cost.program_cost(p);
  EXPECT_EQ(priced.cycles, stats.cycles);
  EXPECT_EQ(priced.fused_cycles_saved, stats.fused_cycles_saved);
  EXPECT_EQ(priced.energy.si(), stats.energy.si());
}

TEST(MacroAccounting, StandardReadIsChargedAndCorrect) {
  ImcMacro m{MacroConfig{}};
  BitVector data(128, 0xDEADBEEFull);
  m.poke_row(9, data);
  const BitVector out = m.read_row(9);
  EXPECT_EQ(out, data);
  EXPECT_EQ(m.last_op().cycles, 1u);
  EXPECT_GT(m.component_energy(Component::SingleWlRead).si(), 0.0);
}

TEST(MacroAccounting, StandardWriteIsChargedAndStored) {
  ImcMacro m{MacroConfig{}};
  BitVector data(128);
  data.fill(true);
  m.write_row(11, data);
  EXPECT_EQ(m.peek_row(11), data);
  EXPECT_EQ(m.last_op().cycles, 1u);
  EXPECT_GT(m.component_energy(Component::WriteBackFull).si(), 0.0);
}

TEST(MacroAccounting, StandardAccessesCheaperThanCompute) {
  // A normal read costs less than a dual-WL compute (one WL, no boost race,
  // no FA evaluation) -- the "memory performance preserved" framing.
  ImcMacro m{MacroConfig{}};
  m.read_row(0);
  const double read = m.last_op().op_energy.si();
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_LT(read, m.last_op().op_energy.si());
}

}  // namespace
}  // namespace bpim::macro
