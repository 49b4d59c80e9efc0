#pragma once
// Operation set of the bit-parallel IMC macro and its cycle costs (Table 1).
//
//   Type     Operation        Cycles
//   Logic    NAND/AND          1
//            NOR/OR            1
//            XNOR/XOR          1
//            NOT, Shift(<<1)   1
//   Integer  ADD               1
//            SUB               2
//            MULT              N+2
//            ADD-Shift         1
//   (N = operand bit width)

#include <string>

#include "common/require.hpp"

namespace bpim::macro {

enum class Op {
  Nand, And, Nor, Or, Xnor, Xor,  // dual-WL logic
  Not, Shift, Copy,               // single-WL
  Add, AddShift, Sub, Mult,       // arithmetic
};

[[nodiscard]] const char* to_string(Op op);

/// True for operations that activate two word lines.
[[nodiscard]] bool is_dual_wl(Op op);

/// Cycle count of `op` at operand precision `bits` (Table 1).
[[nodiscard]] inline unsigned op_cycles(Op op, unsigned bits) {
  BPIM_REQUIRE(bits >= 1, "precision must be positive");
  switch (op) {
    case Op::Sub: return 2;
    case Op::Mult: return bits + 2;
    default: return 1;
  }
}

/// Word-line scheme the macro is built with; decides disturb behaviour and
/// the achievable cycle time.
enum class WlScheme {
  ShortPulseBoost,  ///< the paper's scheme: full-swing 140 ps WL + BL boost
  Wlud,             ///< conventional 0.55 V under-driven WL assist
  FullSwingLong,    ///< unprotected full-swing WL held for the whole access
};

[[nodiscard]] const char* to_string(WlScheme s);

/// Supported operand precisions (the paper implements 2/4/8 and states the
/// same method extends to 16/32).
[[nodiscard]] constexpr bool is_supported_precision(unsigned bits) {
  return bits == 2 || bits == 4 || bits == 8 || bits == 16 || bits == 32;
}

/// Sparsity/precision-adaptive execution policy (DynamicStripes-style
/// narrowing + zero-operand skipping). Data-dependent and bit-exact: the
/// MULT add-shift loop only ever drops *leading* iterations, where every
/// unit's select bit is provably ineffectual (multiplier bit zero, or
/// multiplicand zero so sum == accumulator == 0), so products are identical
/// to the full-depth sequence.
struct AdaptivePolicy {
  /// Run the add-shift loop only to the operands' max effectual bit depth.
  bool narrow_precision = false;
  /// When every unit's product is provably zero, skip staging and all
  /// iterations outright (the zero-initialised accumulator IS the result).
  bool skip_zero = false;
  [[nodiscard]] constexpr bool enabled() const { return narrow_precision || skip_zero; }
};

/// Where a MULT sits in a fused MAC chain. A head pays Table 1's cycles; a
/// pipelined link hides its cycle 1 (D2 zero-init + FF load) behind the
/// predecessor MULT's final write-back; a d1-staged link is also pipelined
/// and skips the D1 staging cycle, reusing the masked multiplicand the
/// predecessor left there.
enum class MacLink { Head, Pipelined, D1Staged };

/// Resolved execution plan of one MULT: how many add-shift iterations run
/// and which setup cycles are elided. Resolved by ImcMacro::execute_mult
/// from the operand data + policy in the same pass that executes it and
/// returned to the controller, which books the savings split and retires the
/// plan for CostModel to price -- so priced == executed cycles holds by
/// construction and the split
///   op_cycles(MULT, bits) == cycles() + fused_cycles_saved()
///                                     + adaptive_cycles_saved(bits)
/// is exact in every case (asserted per instruction by the controller).
struct MultPlan {
  unsigned depth = 0;      ///< executed add-shift iterations (== bits when static)
  bool skip = false;       ///< all products provably zero: no staging, no iterations
  bool d1_staged = false;  ///< D1 already holds the masked multiplicand (fusion)
  bool pipelined = false;  ///< cycle 1 may hide behind the predecessor's write-back

  /// The static full-precision plan (policy off).
  [[nodiscard]] static constexpr MultPlan full(unsigned bits, bool d1_staged = false,
                                               bool pipelined = false) {
    return MultPlan{bits, false, d1_staged, pipelined};
  }

  /// 1 when the D1 staging cycle executes.
  [[nodiscard]] constexpr unsigned staging_cycles() const {
    return (!skip && !d1_staged) ? 1u : 0u;
  }
  /// 1 when cycle 1 (zero-init + FF load) occupies its own cycle. A
  /// pipelined link hides it behind the predecessor's final write-back --
  /// unless nothing else remains, in which case the op still takes its
  /// one mandatory cycle.
  [[nodiscard]] constexpr unsigned lead_cycles() const {
    return (pipelined && staging_cycles() + depth > 0) ? 0u : 1u;
  }
  /// Modeled cycles this MULT occupies the array.
  [[nodiscard]] constexpr unsigned cycles() const {
    return lead_cycles() + staging_cycles() + depth;
  }
  /// Cycles the *fusion* discounts account for (pipelining + D1 reuse).
  [[nodiscard]] constexpr unsigned fused_cycles_saved() const {
    return ((pipelined && lead_cycles() == 0) ? 1u : 0u) + (d1_staged ? 1u : 0u);
  }
  /// Cycles the *adaptive* policy accounts for: dropped leading iterations
  /// plus the staging cycle a skip elides (when fusion hadn't already).
  [[nodiscard]] constexpr unsigned adaptive_cycles_saved(unsigned bits) const {
    return (bits - depth) + ((skip && !d1_staged) ? 1u : 0u);
  }
};

}  // namespace bpim::macro
