#include "macro/cost_model.hpp"

#include "common/require.hpp"

namespace bpim::macro {

using array::RowRef;
using energy::Component;
using energy::SeparatorMode;

CostModel::CostModel(const MacroConfig& cfg)
    : geom_(cfg.geometry),
      vdd_(cfg.vdd),
      separator_(cfg.separator),
      energy_(cfg.energy_params),
      cycle_time_(scheme_cycle_time(cfg, timing::FreqModel(cfg.freq))) {}

Component CostModel::compute_price(RowRef a, RowRef b) const {
  return (a.is_dummy() && b.is_dummy()) ? Component::DualWlComputeNear
                                        : Component::DualWlComputeMain;
}

Component CostModel::wb_price(RowRef dest) const {
  if (!dest.is_dummy()) return Component::WriteBackFull;
  return separator_ == SeparatorMode::Enabled ? Component::WriteBackNear
                                              : Component::WriteBackFull;
}

InstructionCost CostModel::instruction_cost(const Instruction& inst,
                                            const Instruction* prev) const {
  // Each arm charges the identical component sequence, in the identical
  // order, with the identical per-charge bit counts as the matching ImcMacro
  // entry point -- the left-fold over `e` reproduces the ledger's pending-
  // energy accumulation bit for bit. Touch that sequence in imc_macro.cpp
  // and this function must move in lock-step (the conservation tests fail
  // loudly if they drift).
  InstructionCost c;
  Joule e{0.0};
  const auto charge = [&](Component comp, double bits) { e += price(comp) * bits; };
  const double n = static_cast<double>(geom_.cols);

  switch (inst.op) {
    case Op::Nand:
    case Op::And:
    case Op::Nor:
    case Op::Or:
    case Op::Xnor:
    case Op::Xor:
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      c.cycles = 1;
      break;
    case Op::Not:
    case Op::Copy:
    case Op::Shift: {
      BPIM_REQUIRE(inst.dest.has_value(), "single-WL op needs a destination to price");
      charge(Component::SingleWlRead, n);
      charge(Component::Inverter, n);
      charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    }
    case Op::Add:
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      if (inst.dest) charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    case Op::AddShift: {
      BPIM_REQUIRE(inst.dest.has_value(), "ADD-Shift needs a destination to price");
      const std::size_t words = geom_.cols / inst.bits;
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      charge(Component::FlipFlop, static_cast<double>(words));
      charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    }
    case Op::Sub: {
      const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
      charge(Component::SingleWlRead, n);
      charge(Component::Inverter, n);
      charge(wb_price(d1), n);
      charge(compute_price(inst.a, d1), n);
      charge(Component::FaLogic, n);
      c.cycles = 2;
      break;
    }
    case Op::Mult: {
      const bool pipelined =
          prev != nullptr && prev->op == Op::Mult && prev->bits == inst.bits;
      const bool d1_staged = pipelined && prev->a == inst.a;
      return mult_cost(inst.bits, MultPlan::full(inst.bits, d1_staged, pipelined));
    }
  }
  c.energy = e;
  return c;
}

InstructionCost CostModel::instruction_cost(const Instruction& inst, const MultPlan& plan) const {
  if (inst.op != Op::Mult) return instruction_cost(inst, nullptr);
  return mult_cost(inst.bits, plan);
}

InstructionCost CostModel::mult_cost(unsigned bits, const MultPlan& plan) const {
  // Mirrors ImcMacro::execute_mult's charge sequence under the same plan,
  // charge for charge and in order (the bitwise-energy conservation law).
  InstructionCost c;
  Joule e{0.0};
  const auto charge = [&](Component comp, double n_bits) { e += price(comp) * n_bits; };
  const double n = static_cast<double>(geom_.cols);
  const auto& p = energy_.params();
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  const std::size_t units = geom_.cols / (2 * static_cast<std::size_t>(bits));
  const double n_units = static_cast<double>(units);
  // Cycle 1: D2 zero-init + multiplier FF load (always performed -- a
  // skipped MULT's result is that zero-initialised accumulator row).
  charge(wb_price(d2), n * p.zero_init_activity);
  charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
  charge(Component::FlipFlop, static_cast<double>(bits) * n_units);
  // Cycle 2: multiplicand staged into D1 (skipped on a d1-staged link or a
  // zero-skip plan).
  if (!plan.skip && !plan.d1_staged) {
    charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
    charge(wb_price(d1), static_cast<double>(bits) * n_units);
  }
  // Add-and-shift iterations on the separated segment, to the plan's depth.
  for (unsigned k = 0; k < plan.depth; ++k) {
    charge(compute_price(d1, d2), n);
    charge(Component::FaLogic, n);
    charge(Component::FlipFlop, n_units);
    charge(wb_price(d2), n * p.mult_wb_activity);
  }
  c.cycles = plan.cycles();
  c.energy = e;
  return c;
}

ProgramStats CostModel::program_cost(const Program& p) const {
  ProgramStats stats;
  const Instruction* prev = nullptr;
  for (const Instruction& i : p.instructions()) {
    const InstructionCost c = instruction_cost(i, prev);
    ++stats.instructions;
    stats.cycles += c.cycles;
    const unsigned table_cycles = op_cycles(i.op, i.bits);
    if (table_cycles > c.cycles) stats.fused_cycles_saved += table_cycles - c.cycles;
    stats.energy += c.energy;
    prev = &i;
  }
  stats.elapsed = cycle_time_ * static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace bpim::macro
