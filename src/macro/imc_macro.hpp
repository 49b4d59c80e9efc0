#pragma once
// The bit-parallel in-memory-computing macro: the paper's primary
// contribution, as a cycle-accurate, energy-accounted functional model.
//
// One macro = one SRAM array (default 128x128) + 3 dummy rows behind the BL
// separator + a row of column peripheral units (SAs, FA-Logics, MX0..MX3,
// multiplier flip-flops, write-back drivers) + the micro-coded sequencer.
//
// Word layout: at precision N, a row holds cols/N words; word w occupies
// columns [w*N, (w+1)*N), bit i of the word in column w*N+i. Operands of a
// dual-WL operation sit in the *same columns of two different rows*. MULT
// uses 2N-bit precision units (Fig 6): unit u spans columns [u*2N, (u+1)*2N);
// the N-bit inputs live in the unit's low half and the 2N-bit product fills
// the unit.
//
// Every compute entry point leaves the array in the state the hardware
// sequence would (dummy-row traffic included), charges the energy ledger
// with the same component prices, in the same order, as the sequence's
// micro-actions, and advances the cycle counter per Table 1. MULT executes
// runs (MULTs at one precision sharing one multiplicand row; a single MULT
// is a run of one) through one closed-form kernel, replaying the add-shift
// cycles only when injected disturb can change D1/D2 between them; either
// way one MultPrices entry prices each MULT.
//
// Execution contract: the compute entry points below are the *controller's*
// surface. Everything above the macro layer (engine/serve/app) executes
// through verified macro::Programs via MacroController -- a CI grep gate
// enforces that no direct row-op call appears outside src/macro/. Tests and
// benches may still call them directly as the differential oracle against
// the program path (alongside baseline/naive_datapath).

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "array/sram_array.hpp"
#include "common/bitvec.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "energy/energy_model.hpp"
#include "macro/isa.hpp"
#include "periph/falogics.hpp"
#include "timing/freq_model.hpp"

namespace bpim::macro {

struct Instruction;   // macro/program.hpp
struct Extract;       // macro/program.hpp
struct ProgramStats;  // macro/program.hpp

/// The one operand packer, the inverse of ImcMacro::peek_mult_products:
/// values[i] goes zero-extended into the `field`-bit field at column
/// col + i * field of `row` (an array row or a pinned row image). Fields
/// divide 64 at every supported precision, so no field straddles a storage
/// word; each word's fields are assembled and written with one deposit, and
/// columns outside the range keep their bits. Every value is checked
/// against `bits` before any bit is written.
void deposit_fields(BitVector& row, std::size_t col, unsigned field, unsigned bits,
                    std::span<const std::uint64_t> values);

struct MacroConfig {
  array::ArrayGeometry geometry{};
  Volt vdd{0.9};
  energy::SeparatorMode separator = energy::SeparatorMode::Enabled;
  energy::EnergyParams energy_params{};
  WlScheme wl_scheme = WlScheme::ShortPulseBoost;
  /// When true, dual-WL computes under an unsafe WL scheme stochastically
  /// flip victim cells (see DisturbModel); the proposed scheme is immune.
  bool inject_disturb = false;
  std::uint64_t seed = 0x6B1Dull;
  timing::FreqModelConfig freq{};
};

/// Cycle time of a macro built with `cfg` under its WL scheme and separator
/// mode, composed from the given frequency model. Shared by
/// ImcMacro::cycle_time() and macro::CostModel, so instruction-driven
/// pricing can never drift from the executing macro's tick.
[[nodiscard]] Second scheme_cycle_time(const MacroConfig& cfg, const timing::FreqModel& freq);

/// Per-scheme probability that a vulnerable cell flips during one dual-WL
/// compute. Values for ShortPulseBoost/Wlud are the measured iso-ADM rates
/// (see timing/adm and EXPERIMENTS.md); FullSwingLong is catastrophic.
struct DisturbModel {
  double flip_probability = 0.0;
  [[nodiscard]] static DisturbModel for_scheme(WlScheme scheme);
};

/// Result of one macro-level operation.
struct ExecStats {
  unsigned cycles = 0;
  Joule op_energy{0.0};
};

/// The ledger charge of every MULT plan at one pricing; it prices closed
/// form and disturb replay alike.
///
/// A MULT's plan performs its micro-actions in sequencer order: D2
/// zero-init, FF load, D1 staging when it runs, then `depth` add-shift
/// iterations. Their charge is a left fold that depends only on (bits,
/// depth, staging) and on prices fixed at construction, so the table folds
/// it once per plan, with the ledger's per-charge arithmetic, and each MULT
/// adds the stored result: its op_energy is bitwise the per-charge fold
/// (CostModel's price), and each component's running total gains one
/// subtotal per MULT. Immutable once built: an ImcMemory shares one table
/// among its macros, which price identically.
class MultPrices {
 public:
  /// Everything the charges depend on; equal pricings give equal tables.
  struct Pricing {
    std::array<Joule, 8> price{};  ///< per-bit price, indexed by energy::Component
    double zero_init_activity = 0.0;
    double mult_wb_activity = 0.0;
    std::size_t cols = 0;
    energy::Component wb{};  ///< the dummy-row write-back component
    bool operator==(const Pricing&) const = default;
  };
  /// One plan's whole charge: its total and the total's split by component.
  struct Charge {
    Joule energy{0.0};
    std::array<Joule, 8> by_component{};
  };

  explicit MultPrices(const Pricing& pricing);
  /// The pricing of a macro built with `cfg`.
  [[nodiscard]] static Pricing pricing_of(const MacroConfig& cfg);

  [[nodiscard]] const Pricing& pricing() const { return pricing_; }
  /// The charges of every plan at a supported precision `bits`: a plan's
  /// is entry plan.staging_cycles() * (bits + 1) + plan.depth.
  [[nodiscard]] const Charge* charges(unsigned bits) const {
    return &charges_[kFirst[static_cast<std::size_t>(std::countr_zero(bits)) - 1]];
  }

 private:
  /// Index of each precision's first entry: 2 * (bits + 1) entries per
  /// precision (staging 0/1, depth 0..bits), precisions 2..32 in order.
  static constexpr std::array<std::size_t, 5> kFirst = {0, 6, 16, 34, 68};

  Pricing pricing_;
  std::vector<Charge> charges_;
};

class ImcMacro {
 public:
  /// `mult_prices`, when given, must have been built for the pricing of
  /// `cfg` (checked); an ImcMemory passes its macros one shared table.
  /// Without it the macro builds its own.
  explicit ImcMacro(const MacroConfig& cfg, std::shared_ptr<const MultPrices> mult_prices = {});

  [[nodiscard]] const MacroConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t cols() const { return cfg_.geometry.cols; }
  [[nodiscard]] std::size_t rows() const { return cfg_.geometry.rows; }
  /// Words per row at a given precision. Supported precisions are powers
  /// of two, so the width checks and counts here and below are masks and
  /// shifts (they run on every MULT).
  [[nodiscard]] std::size_t words_per_row(unsigned bits) const {
    BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
    BPIM_REQUIRE((cols() & (bits - 1)) == 0, "precision must divide the row width");
    return cols() >> std::countr_zero(bits);
  }
  /// MULT units per row at a given precision (each 2*bits wide).
  [[nodiscard]] std::size_t mult_units_per_row(unsigned bits) const {
    BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
    BPIM_REQUIRE((cols() & (2 * bits - 1)) == 0, "2N-bit units must divide the row width");
    return cols() >> (std::countr_zero(bits) + 1);
  }

  // ---- uncharged data access (test/benchmark setup) ----------------------
  void poke_row(std::size_t r, const BitVector& data);
  [[nodiscard]] const BitVector& peek_row(std::size_t r) const;
  void poke_word(std::size_t r, std::size_t word, unsigned bits, std::uint64_t value);
  [[nodiscard]] std::uint64_t peek_word(std::size_t r, std::size_t word, unsigned bits) const;
  /// Bulk poke: values[i] goes to word `first_word + i`. One range/precision
  /// validation for the whole span (the engine's operand-load path).
  void poke_words(std::size_t r, std::size_t first_word, unsigned bits,
                  std::span<const std::uint64_t> values);
  /// Zero columns [col, cols()) of row r: the tail a staged row write
  /// drives along with its values.
  void poke_zero_tail(std::size_t r, std::size_t col);
  /// Low half of MULT unit `u` (operand slot).
  void poke_mult_operand(std::size_t r, std::size_t unit, unsigned bits, std::uint64_t value);
  /// Bulk poke of MULT operands: values[i] goes to unit `first_unit + i`.
  void poke_mult_operands(std::size_t r, std::size_t first_unit, unsigned bits,
                          std::span<const std::uint64_t> values);
  [[nodiscard]] std::uint64_t peek_mult_product(const BitVector& row, std::size_t unit,
                                                unsigned bits) const;
  /// Bulk extraction of the 2N-bit products: out[i] = product of unit i.
  /// One range/precision validation for the whole span, then a
  /// per-precision pass with constant unit shifts (mirroring
  /// poke_mult_operands).
  void peek_mult_products(const BitVector& row, unsigned bits, std::span<std::uint64_t> out) const;
  [[nodiscard]] const array::SramArray& sram() const { return array_; }

  // ---- standard SRAM access (charged; the macro is still a memory) --------
  /// Normal read of a full row (single-WL, 1 cycle).
  BitVector read_row(std::size_t r);
  /// Normal write of a full row (1 cycle, drives the full-height BLs).
  void write_row(std::size_t r, const BitVector& data);

  // ---- compute operations (charged) ---------------------------------------
  /// Dual-WL logic op across all columns (1 cycle).
  BitVector logic_rows(periph::LogicFn fn, array::RowRef a, array::RowRef b);
  /// Single-WL op: NOT / COPY / SHIFT(<<1 per precision word) of row `src`,
  /// written back to `dest` (1 cycle).
  BitVector unary_row(Op op, array::RowRef src, array::RowRef dest, unsigned bits);
  /// Bit-parallel ADD of all words of two rows (1 cycle, result driven out;
  /// pass `dest` to also write it back).
  BitVector add_rows(array::RowRef a, array::RowRef b, unsigned bits,
                     std::optional<array::RowRef> dest = std::nullopt, bool carry_in = false);
  /// ADD followed by the <<1 write-back path (1 cycle, requires dest).
  BitVector add_shift_rows(array::RowRef a, array::RowRef b, unsigned bits, array::RowRef dest);
  /// Two's-complement SUB: a - b (2 cycles: NOT -> dummy, ADD with cin=1).
  BitVector sub_rows(array::RowRef a, array::RowRef b, unsigned bits);
  /// Bit-parallel MULT on 2N-bit units (N+2 cycles static; fewer under an
  /// enabled AdaptivePolicy): execute_mult, a run of one, at a head link.
  /// Operands in the low halves of each unit of rows a (multiplicand) and b
  /// (multiplier); returns the row of 2N-bit products (also left in D2).
  BitVector mult_rows(array::RowRef a, array::RowRef b, unsigned bits,
                      const AdaptivePolicy& policy = {});
  /// One MULT as a run of one (execute_mult_run): resolves the plan from
  /// the operand data, executes it and returns it. The products are left in
  /// D2, and D1 holds the masked multiplicand when the plan staged it.
  ///
  /// Chain links: a pipelined link overlaps cycle 1 (D2 zero-init + FF load)
  /// with the predecessor MULT's final write-back (-1 cycle, same energy); a
  /// d1-staged link additionally skips the D1 staging cycle and multiplies
  /// D1 as it stands -- valid only when the immediately preceding op was a
  /// MULT at the same precision and D1 still holds this multiplicand row's
  /// masked copy (-1 cycle and its staging energy).
  ///
  /// Planning: one pass over the operand words computes every unit's product
  /// and the max effectual multiplier depth E (the widest multiplier half of
  /// any unit whose multiplicand is nonzero). An enabled `policy` narrows the
  /// iterations to E (narrow_precision) and/or skips staging and iterations
  /// when E == 0 (skip_zero). The scan is uncharged: it models the
  /// peripheral's zero/msb detectors reading the operands as they stream
  /// through the FF load and staging cycles the op performs anyway.
  ///
  /// Execution: the products are computed in closed form, and D1 receives
  /// the masked multiplicand only when the plan stages (a skipped or
  /// d1-staged MULT leaves it untouched); only live disturb injection
  /// replays the loop cycle by cycle (mult_loop). Either way the ledger is
  /// charged the plan's micro-actions once, as MultPrices folds them.
  MultPlan execute_mult(const array::RowRef& a, const array::RowRef& b, unsigned bits,
                        const AdaptivePolicy& policy = {}, MacLink link = MacLink::Head);

  // ---- accounting ---------------------------------------------------------
  [[nodiscard]] ExecStats last_op() const { return last_; }
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }
  [[nodiscard]] Joule total_energy() const { return total_energy_; }
  /// Cumulative energy charged to one micro-action class (sums to
  /// total_energy() across all components).
  [[nodiscard]] Joule component_energy(energy::Component c) const;
  void reset_counters();

  /// Cycle time / fmax for this macro's scheme and separator mode (fixed
  /// by the config, so computed once at construction).
  [[nodiscard]] Second cycle_time() const { return cycle_time_; }
  [[nodiscard]] Hertz fmax() const;

  /// Count of cells corrupted by injected read disturb so far.
  [[nodiscard]] std::uint64_t disturb_flips() const { return disturb_flips_; }

  /// Dummy-row roles used by the sequencer.
  static constexpr std::size_t kDummyZero = 0;  ///< scratch / zero row
  static constexpr std::size_t kDummyOperand = 1;  ///< NOT result / multiplicand copy
  static constexpr std::size_t kDummyAccum = 2;    ///< MULT accumulator / results

 private:
  friend class MacroController;  // hands MULT runs to execute_mult_run

  /// The MULT entry: executes `run`, MULTs at one precision sharing one
  /// multiplicand row. `pipelined`: the run directly follows a MULT at its
  /// precision; `d1_holds`: D1 holds its masked multiplicand. Later MULTs
  /// are pipelined, and d1-staged once D1 holds it. Each MULT is booked into
  /// the ledger and `stats` (sums, tallies) and, with `records`, retires
  /// into records[k]. D2 is left holding the last MULT's products; returns
  /// the last MULT's plan.
  MultPlan execute_mult_run(std::span<const Instruction> run, const AdaptivePolicy& policy,
                            bool pipelined, bool d1_holds, std::span<Extract> records,
                            ProgramStats& stats);
  /// execute_mult_run at precision N, the product kernel's one caller.
  template <unsigned N>
  MultPlan mult_run(std::span<const Instruction> run, const AdaptivePolicy& policy,
                    bool pipelined, bool d1_holds, std::span<Extract> records,
                    ProgramStats& stats);
  /// The add-shift loop's data movement replayed cycle by cycle (disturb
  /// injection only). It charges nothing; execute_mult prices the plan.
  void mult_loop(array::RowRef a, array::RowRef b, unsigned bits, MultPlan plan);
  [[nodiscard]] energy::Component compute_price(array::RowRef a, array::RowRef b) const;
  [[nodiscard]] energy::Component wb_price() const;
  void charge(energy::Component c, double bits);
  void finish_op(unsigned cycles);
  /// Write with separator management (a dummy row behind an enabled
  /// separator drives only the short BL segment); charges nothing.
  void store(array::RowRef dest, const BitVector& data);
  /// store() + write-back energy for `charged_bits` bits.
  void write_back(array::RowRef dest, const BitVector& data, double charged_bits);
  /// Dual-WL sense into the SA latch (sense_), valid until the next sense.
  /// Single-WL reads (array_.read_single) land in the same latch.
  const array::BlReadout& sense_dual(array::RowRef a, array::RowRef b);
  /// Apply stochastic disturb to vulnerable columns of a dual-WL access.
  void maybe_disturb(array::RowRef a, array::RowRef b);

  MacroConfig cfg_;
  array::SramArray array_;
  Second cycle_time_;
  /// Per-bit price of each component at cfg_.vdd (fixed by the config).
  std::array<Joule, 8> price_{};
  std::shared_ptr<const MultPrices> mult_prices_;
  DisturbModel disturb_;
  Rng rng_;

  // Peripheral latches, reused cycle to cycle so no cycle allocates (only
  // the result row an op returns may): SA outputs, FA-Logics outputs, the
  // MULT multiplier FFs, the row a replayed MULT cycle writes back
  // (zero-init, masked multiplicand or next accumulator), and a MULT run's
  // masked multiplicand (staged into D1 when a plan stages) with its
  // nonzero-unit mask. wb_, stage_ and stage_nonzero_ are row-wide from
  // construction, and a run resolves every word of the last two.
  array::BlReadout sense_;
  periph::AddResult fa_;
  BitVector ff_;
  BitVector wb_;
  BitVector stage_;
  BitVector stage_nonzero_;

  ExecStats last_{};
  Joule pending_energy_{0.0};
  std::uint64_t total_cycles_ = 0;
  Joule total_energy_{0.0};
  std::array<Joule, 8> component_energy_{};  // indexed by Component
  std::uint64_t disturb_flips_ = 0;
};

}  // namespace bpim::macro
