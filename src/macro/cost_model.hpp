#pragma once
// Instruction-driven cost model: cycles and joules of a macro::Program,
// priced instruction by instruction from the same timing (timing/freq_model)
// and energy (energy/EnergyModel) models the macro's execution ledger draws
// on -- without touching a macro.
//
// Each Instruction maps to the exact micro-action sequence the sequencer
// would issue (dummy-row traffic, per-bit activities and all), in the exact
// order ImcMacro charges it, so the statically priced totals equal the
// executed ledger totals *bitwise* -- double accumulation order included.
// The ledger is the runtime account (MacroController reads it back per
// instruction); this model is the static reference it is checked against.
// test_macro_accounting, test_macro_energy and test_hot_path_diff hold the
// conservation law (priced == executed) on every instruction: cycles
// exactly, energy bitwise.
//
// Chained-MAC pricing: program_cost always prices the chained datapath the
// controller always runs -- back-to-back MULTs at one precision get the
// pipelined FF-load discount (-1 cycle), and a repeated multiplicand row
// additionally skips the D1 staging cycle and its energy (-1 cycle more).
// instruction_cost applies the same discounts when handed the predecessor.

#include <cstdint>

#include "energy/energy_model.hpp"
#include "macro/program.hpp"
#include "timing/freq_model.hpp"

namespace bpim::macro {

/// Price of one instruction: what the macro's ledger will record for it.
struct InstructionCost {
  unsigned cycles = 0;
  Joule energy{0.0};
};

class CostModel {
 public:
  explicit CostModel(const MacroConfig& cfg);

  /// Price one instruction. `prev` (may be null) is the immediately
  /// preceding instruction of the program: a MULT after a MULT at its
  /// precision is priced as the chained link the controller runs it as.
  /// Null prices the instruction as a program's first.
  [[nodiscard]] InstructionCost instruction_cost(const Instruction& inst,
                                                 const Instruction* prev = nullptr) const;

  /// Price one instruction under the MULT plan it executed with (the
  /// controller's path when an AdaptivePolicy is active:
  /// ImcMacro::execute_mult resolves the data-dependent depth/skip, charges
  /// exactly the micro-actions this overload prices, and returns the plan
  /// -- the cost model itself stays data-oblivious). Non-MULT instructions
  /// ignore the plan and price as the static overload does.
  [[nodiscard]] InstructionCost instruction_cost(const Instruction& inst,
                                                 const MultPlan& plan) const;

  /// Price a whole program with the adaptive policy off, accumulating in
  /// instruction order (the same left-fold the execution ledger performs).
  /// MULT chains are priced on the chained datapath and the discount lands
  /// in fused_cycles_saved, exactly as MacroController::run books it.
  [[nodiscard]] ProgramStats program_cost(const Program& p) const;

  /// Cycle time under the config's WL scheme and separator mode -- the same
  /// tick ImcMacro::cycle_time() reports (shared scheme_cycle_time helper).
  [[nodiscard]] Second cycle_time() const { return cycle_time_; }

 private:
  [[nodiscard]] Joule price(energy::Component c) const { return energy_.price(c, vdd_); }
  [[nodiscard]] energy::Component compute_price(array::RowRef a, array::RowRef b) const;
  [[nodiscard]] energy::Component wb_price(array::RowRef dest) const;
  [[nodiscard]] InstructionCost mult_cost(unsigned bits, const MultPlan& plan) const;

  array::ArrayGeometry geom_;
  Volt vdd_;
  energy::SeparatorMode separator_;
  energy::EnergyModel energy_;
  Second cycle_time_;
};

}  // namespace bpim::macro
