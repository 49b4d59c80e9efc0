#pragma once
// Micro-program interface to the IMC macro -- the software-visible face of
// the "Ctrl." block in the paper's Fig 3.
//
// A Program is a validated list of instructions (op, operand rows, precision,
// destination); the MacroController executes it on an ImcMacro, accumulating
// per-program cycle/energy statistics and recording an optional trace. This
// is how a host integrates the macro: build row-level programs, run them,
// read results -- without touching the per-op C++ API directly.

#include <array>
#include <cstdint>
#include <optional>
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

/// Per-instruction execution record; cycles and energy are the macro
/// ledger's entry for the instruction (ImcMacro::last_op()).
struct TraceEntry {
  Instruction inst;
  unsigned cycles = 0;
  Joule op_energy{0.0};
  BitVector result;  ///< row-wide result driven out (empty for pure WB ops)
  /// Cycles the adaptive policy saved on this instruction (MULT narrowing/
  /// skipping; 0 for other ops or when the policy is off).
  unsigned adaptive_cycles_saved = 0;
  /// The resolved plan a MULT executed under (default for other ops): what
  /// CostModel::instruction_cost(inst, plan) prices to exactly this entry.
  MultPlan plan{};
};

/// Per-program account, summed from the macro ledger instruction by
/// instruction. macro::CostModel prices the same stream statically; the
/// tests hold the two equal (cycles exactly, energy bitwise).
struct ProgramStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  /// Cycles the chained-MAC execution path saved vs Table 1's per-op cost
  /// (0 unless run() was asked to fuse). `cycles` is already net of this.
  std::uint64_t fused_cycles_saved = 0;
  /// Cycles the adaptive policy saved (MULT iteration narrowing + zero
  /// skipping; 0 unless run() was given an enabled AdaptivePolicy).
  /// `cycles` is already net of this, and the three-way split is exact:
  /// static_cycles == cycles + fused_cycles_saved + adaptive_cycles_saved.
  std::uint64_t adaptive_cycles_saved = 0;
  Joule energy{0.0};
  Second elapsed{0.0};
};

class VerifiedProgram;  // macro/verifier.hpp

/// How MacroController checks a program before execution. One mode is
/// left: run the static verifier (macro/verifier.hpp) over the whole
/// program first and reject it with every error listed.
enum class VerifyMode {
  VerifyFirst,
};

/// Executes programs against a macro. A raw Program is verified whole
/// before any state is touched; a VerifiedProgram was verified when it was
/// made and only has its geometry checked. The macro ledger is the one
/// runtime account: each instruction's cycles and energy are read back from
/// ImcMacro::last_op().
class MacroController {
 public:
  explicit MacroController(ImcMacro& m, VerifyMode = VerifyMode::VerifyFirst) : macro_(m) {}

  /// Verifies `p` against the macro's geometry, then runs it; returns
  /// stats. If `trace` is non-null, appends one entry per instruction.
  /// Rejected programs leave the macro untouched.
  ///
  /// With `fuse_mac_chains` set, back-to-back MULTs at one precision run on
  /// the chained datapath: the FF load of cycle 1 overlaps the predecessor's
  /// final D2 write-back (-1 cycle), and when the multiplier row repeats the
  /// D1 staging cycle is skipped too (-1 more). Results are bit-identical;
  /// only the cycle/energy account changes (fused_cycles_saved reports the
  /// discount).
  ///
  /// With an enabled `policy`, every MULT is resolved against its operand
  /// data as it executes (ImcMacro::execute_mult): the add-shift loop runs
  /// only to the max effectual bit depth (narrow_precision) and
  /// provably-zero products skip staging and iterations outright
  /// (skip_zero). Outputs stay bit-identical; the saved cycles land in
  /// adaptive_cycles_saved with static == cycles + fused + adaptive asserted
  /// per instruction.
  ProgramStats run(const Program& p, std::vector<TraceEntry>* trace = nullptr,
                   bool fuse_mac_chains = false, const AdaptivePolicy& policy = {});

  /// Runs an already-verified program without verifying it again. Throws
  /// std::invalid_argument, leaving the macro untouched, when `p` was
  /// verified for a different array geometry.
  ProgramStats run(const VerifiedProgram& p, std::vector<TraceEntry>* trace = nullptr,
                   bool fuse_mac_chains = false, const AdaptivePolicy& policy = {});

 private:
  /// The adaptive instruments of the running program, tallied per MULT and
  /// published once at its end (reset when an adaptive program starts).
  struct AdaptiveTally {
    std::uint64_t mults = 0;
    std::uint64_t skipped = 0;
    std::array<std::uint64_t, 33> depth_counts{};  ///< MULTs per executed depth

    void add(const MultPlan& plan) {
      ++mults;
      if (plan.skip) ++skipped;
      ++depth_counts[plan.depth];
    }
  };

  ProgramStats execute(const Program& p, std::vector<TraceEntry>* trace, bool fuse_mac_chains,
                       const AdaptivePolicy& policy);

  ImcMacro& macro_;
  AdaptiveTally tally_;
};

}  // namespace bpim::macro
