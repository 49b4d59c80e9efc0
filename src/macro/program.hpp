#pragma once
// Micro-program interface to the IMC macro -- the software-visible face of
// the "Ctrl." block in the paper's Fig 3.
//
// A Program is a validated list of instructions (op, operand rows, precision,
// destination); the MacroController issues each one once on an ImcMacro, in
// one mode: back-to-back MULTs at one precision always run on the chained
// datapath. It returns per-program cycle/energy statistics and, on request,
// one retire record per instruction (Extract: the instruction's values and
// its ledger entry). This is how a host integrates the macro: build
// row-level programs, run them, read results -- without touching the per-op
// C++ API directly. Every check runs before the first instruction, once per
// thing checked: a raw Program and a span of retire records per run, a
// VerifiedProgram (its MULT runs too) once at sealing, CheckedRecords once.
//
// The controller only executes: it publishes no metric and records no trace
// event. engine::ExecutionEngine publishes the program-path instruments
// (macro.program.cycles, engine.adaptive.*, the macro.program instant) from
// the ProgramStats and retire records it gets back, so a direct controller
// caller moves none of them.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "macro/imc_macro.hpp"

namespace bpim::macro {

/// One row-level instruction. Unused fields are ignored per op kind:
///   * logic ops use `logic_fn`, rows a+b;
///   * NOT/COPY/SHIFT use row a and `dest` (required);
///   * ADD uses rows a+b and optional `dest`; ADD-Shift requires `dest`;
///   * SUB/MULT use rows a+b (results: SUB driven out, MULT in dummy D2).
struct Instruction {
  Op op = Op::Add;
  periph::LogicFn logic_fn = periph::LogicFn::And;
  array::RowRef a{};
  array::RowRef b{};
  std::optional<array::RowRef> dest{};
  unsigned bits = 8;
};

[[nodiscard]] std::string to_string(const Instruction& inst);

/// Validated instruction list.
class Program {
 public:
  Program() = default;

  Program& logic(periph::LogicFn fn, array::RowRef a, array::RowRef b);
  Program& unary(Op op, array::RowRef src, array::RowRef dest, unsigned bits);
  Program& add(array::RowRef a, array::RowRef b, unsigned bits,
               std::optional<array::RowRef> dest = std::nullopt);
  Program& add_shift(array::RowRef a, array::RowRef b, unsigned bits, array::RowRef dest);
  Program& sub(array::RowRef a, array::RowRef b, unsigned bits);
  Program& mult(array::RowRef a, array::RowRef b, unsigned bits);

  /// Append a raw instruction with none of the builder methods' argument
  /// checks -- the entry point for code that assembles Instructions itself
  /// (a macro compiler, fuzzers, verifier tests). Such programs carry no
  /// validity guarantee: MacroController::run(const Program&) verifies them
  /// whole before execution.
  Program& push(Instruction inst) {
    instructions_.push_back(std::move(inst));
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return instructions_.size(); }
  [[nodiscard]] bool empty() const { return instructions_.empty(); }
  [[nodiscard]] const std::vector<Instruction>& instructions() const { return instructions_; }

  /// Total cycle cost per Table 1 (static, before execution).
  [[nodiscard]] std::uint64_t static_cycles() const;

  /// Disassembly: one instruction per line ("#k  MULT R4, R1 @8b  ; ..."),
  /// annotated with the scratch-row roles each op implies. The text the
  /// verifier's diagnostics and test failure messages lean on.
  [[nodiscard]] std::string dump() const;

 private:
  friend class RelocatableForward;  // rebinds weight rows of a verified forward

  std::vector<Instruction> instructions_;
};

/// One instruction's retire record, the controller's only per-instruction
/// output. The caller sets where its values go: `values[i]` receives word i
/// of its result row at `bits` (1..64 bits, every word inside the row) --
/// for a MULT, the 2N-bit product of MULT unit i (N = `bits`, the MULT's
/// precision). Values sized to the row capture the whole row; empty values
/// capture none. Every record is checked against its instruction before the
/// first one executes (a span on every run, CheckedRecords once), so a
/// malformed one (bits outside 1..64, not a MULT precision for a MULT, or
/// values reaching past the row) throws with the macro untouched. As the
/// instruction retires, the controller writes the values there and fills in
/// the macro ledger's entry for it (ImcMacro::last_op()) and the plan it
/// executed under beside them.
struct Extract {
  unsigned bits = 8;
  std::span<std::uint64_t> values;
  // Written by the controller at retire:
  unsigned cycles = 0;
  /// Cycles the adaptive policy saved on this instruction (MULT only).
  unsigned adaptive_cycles_saved = 0;
  Joule op_energy{0.0};
  /// The resolved plan a MULT executed under (default for other ops): what
  /// CostModel::instruction_cost(inst, plan) prices to exactly this record.
  MultPlan plan{};
};

/// Per-program account, summed from the macro ledger instruction by
/// instruction. macro::CostModel prices the same stream statically; the
/// tests hold the two equal (cycles exactly, energy bitwise).
struct ProgramStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  /// Cycles the chained-MAC links saved vs Table 1's per-op cost (0 unless
  /// the program has back-to-back MULTs). `cycles` is already net of this.
  std::uint64_t fused_cycles_saved = 0;
  /// Cycles the adaptive policy saved (MULT iteration narrowing + zero
  /// skipping; 0 unless run() was given an enabled AdaptivePolicy).
  /// `cycles` is already net of this, and the three-way split is exact:
  /// static_cycles == cycles + fused_cycles_saved + adaptive_cycles_saved.
  std::uint64_t adaptive_cycles_saved = 0;
  /// The instructions' energies as one left fold in program order.
  Joule energy{0.0};
  Second elapsed{0.0};
  /// Adaptive tallies, counted as each MULT retires (CostModel leaves them
  /// zero): MULTs, MULTs skipped outright, MULTs per executed depth.
  std::uint64_t mults = 0;
  std::uint64_t skipped = 0;
  std::array<std::uint32_t, 33> depths{};
};

class VerifiedProgram;  // macro/verifier.hpp

/// Retire records checked once against one sealing, for a program run many
/// times (a fused forward's cached plan); run() compares only seal ids. They
/// read as const: only the controller writes the ledger fields, at retire.
class CheckedRecords {
 public:
  /// The check run(span) makes per run; throws std::invalid_argument.
  CheckedRecords(const VerifiedProgram& p, std::vector<Extract> records);
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] auto begin() const { return records_.cbegin(); }
  [[nodiscard]] auto end() const { return records_.cend(); }

 private:
  friend class MacroController;  // writes the ledger fields at retire
  std::uint64_t seal_id_;
  std::vector<Extract> records_;
};

/// How MacroController checks a program before execution. One mode is
/// left: run the static verifier (macro/verifier.hpp) over the whole
/// program first and reject it with every error listed.
enum class VerifyMode {
  VerifyFirst,
};

/// Executes programs against a macro, every run() through one execute()
/// that makes each sealed MULT run (VerifiedProgram::run_end; a fused
/// forward's J MULTs per activation row) one macro call. A raw Program is
/// verified whole before any state is touched; a VerifiedProgram was
/// verified when it was made and only has its geometry checked. The macro
/// ledger is the one runtime account: each instruction's cycles and energy
/// are read back from ImcMacro::last_op(). The controller holds nothing but
/// its macro.
class MacroController {
 public:
  explicit MacroController(ImcMacro& m, VerifyMode = VerifyMode::VerifyFirst) : macro_(m) {}

  /// Verifies `p` against the macro's geometry, then runs a sealed copy;
  /// returns stats. Rejected programs leave the macro untouched.
  ///
  /// `records` is empty or holds one retire record per instruction, in
  /// program order: each instruction's values are written out of its result
  /// row as it retires, beside its ledger entry and MULT plan. A bad
  /// record (see Extract) is rejected like a program error: it throws
  /// std::invalid_argument before any instruction runs.
  ///
  /// Back-to-back MULTs at one precision run on the chained datapath: the
  /// FF load of cycle 1 overlaps the predecessor's final D2 write-back
  /// (-1 cycle, a Pipelined link), and when D1 still holds this MULT's
  /// masked multiplicand the staging cycle is skipped too (-1 more, a
  /// D1Staged link). Results are bit-identical to unchained MULTs; only the
  /// cycle/energy account changes (fused_cycles_saved reports the discount).
  ///
  /// With an enabled `policy`, every MULT is resolved against its operand
  /// data as it executes (ImcMacro::execute_mult): the add-shift loop runs
  /// only to the max effectual bit depth (narrow_precision) and
  /// provably-zero products skip staging and iterations outright
  /// (skip_zero). Outputs stay bit-identical; the saved cycles land in
  /// adaptive_cycles_saved with static == cycles + fused + adaptive asserted
  /// per instruction, and the returned stats tally the MULTs, the skips and
  /// the executed depths.
  ProgramStats run(const Program& p, const AdaptivePolicy& policy = {},
                   std::span<Extract> records = {});

  /// Runs an already-verified program without verifying it again. Throws
  /// std::invalid_argument, leaving the macro untouched, when `p` was
  /// verified for a different array geometry or a record does not fit.
  ProgramStats run(const VerifiedProgram& p, const AdaptivePolicy& policy = {},
                   std::span<Extract> records = {});

  /// The same into records checked once: throws, leaving the macro
  /// untouched, when they were checked against another sealing.
  ProgramStats run(const VerifiedProgram& p, const AdaptivePolicy& policy,
                   CheckedRecords& records);

 private:
  ProgramStats execute(const VerifiedProgram& p, const AdaptivePolicy& policy,
                       std::span<Extract> records);

  ImcMacro& macro_;
};

}  // namespace bpim::macro
