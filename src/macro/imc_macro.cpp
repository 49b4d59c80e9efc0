#include "macro/imc_macro.hpp"

#include <bit>
#include <cmath>

#include "common/require.hpp"

namespace bpim::macro {

using array::BlReadout;
using array::RowRef;
using energy::Component;
using energy::SeparatorMode;
using periph::FaLogics;
using periph::LogicFn;

DisturbModel DisturbModel::for_scheme(WlScheme scheme) {
  switch (scheme) {
    case WlScheme::ShortPulseBoost:
      // Measured < 1/2M in the ADM Monte Carlo (timing/adm): the WL is gone
      // before the boost collapses the BL.
      return {0.0};
    case WlScheme::Wlud:
      // Iso-ADM calibration point (2.25e-5 measured at 0.55 V WL, 0.9 V).
      return {2.25e-5};
    case WlScheme::FullSwingLong:
      // Full-swing WL held while the BL collapses: the access device wins
      // against the pull-up for a large fraction of mismatch samples.
      return {0.35};
  }
  return {0.0};
}

ImcMacro::ImcMacro(const MacroConfig& cfg)
    : cfg_(cfg),
      array_(cfg.geometry),
      energy_(cfg.energy_params),
      cycle_time_(scheme_cycle_time(cfg, timing::FreqModel(cfg.freq))),
      disturb_(DisturbModel::for_scheme(cfg.wl_scheme)),
      rng_(cfg.seed) {
  BPIM_REQUIRE(cfg.geometry.dummy_rows >= 3, "the sequencer needs three dummy rows");
}

std::size_t ImcMacro::words_per_row(unsigned bits) const {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  BPIM_REQUIRE(cols() % bits == 0, "precision must divide the row width");
  return cols() / bits;
}

std::size_t ImcMacro::mult_units_per_row(unsigned bits) const {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  BPIM_REQUIRE(cols() % (2 * bits) == 0, "2N-bit units must divide the row width");
  return cols() / (2 * static_cast<std::size_t>(bits));
}

// ---- uncharged data access --------------------------------------------------

void ImcMacro::poke_row(std::size_t r, const BitVector& data) {
  array_.write_row(RowRef::main(r), data);
}

const BitVector& ImcMacro::peek_row(std::size_t r) const { return array_.row(RowRef::main(r)); }

void ImcMacro::poke_word(std::size_t r, std::size_t word, unsigned bits, std::uint64_t value) {
  BPIM_REQUIRE(word < words_per_row(bits), "word index out of range");
  BPIM_REQUIRE(BitVector::fits_u64(value, bits), "value does not fit precision");
  array_.deposit_bits(RowRef::main(r), word * bits, bits, value);
}

std::uint64_t ImcMacro::peek_word(std::size_t r, std::size_t word, unsigned bits) const {
  BPIM_REQUIRE(word < words_per_row(bits), "word index out of range");
  return array_.extract_bits(RowRef::main(r), word * bits, bits);
}

void ImcMacro::poke_words(std::size_t r, std::size_t first_word, unsigned bits,
                          std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(first_word + values.size() <= words_per_row(bits), "word range out of range");
  const RowRef row = RowRef::main(r);
  for (std::size_t i = 0; i < values.size(); ++i) {
    BPIM_REQUIRE(BitVector::fits_u64(values[i], bits), "value does not fit precision");
    array_.deposit_bits(row, (first_word + i) * bits, bits, values[i]);
  }
}

void ImcMacro::poke_mult_operand(std::size_t r, std::size_t unit, unsigned bits,
                                 std::uint64_t value) {
  BPIM_REQUIRE(unit < mult_units_per_row(bits), "unit index out of range");
  BPIM_REQUIRE(BitVector::fits_u64(value, bits), "value does not fit precision");
  // One deposit covers the whole unit: operand in the low half, zeros above.
  array_.deposit_bits(RowRef::main(r), unit * 2 * bits, 2 * bits, value);
}

void ImcMacro::poke_mult_operands(std::size_t r, std::size_t first_unit, unsigned bits,
                                  std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(first_unit + values.size() <= mult_units_per_row(bits), "unit range out of range");
  const RowRef row = RowRef::main(r);
  for (std::size_t i = 0; i < values.size(); ++i) {
    BPIM_REQUIRE(BitVector::fits_u64(values[i], bits), "value does not fit precision");
    array_.deposit_bits(row, (first_unit + i) * 2 * bits, 2 * bits, values[i]);
  }
}

std::uint64_t ImcMacro::peek_mult_product(const BitVector& row, std::size_t unit,
                                          unsigned bits) const {
  BPIM_REQUIRE(unit < mult_units_per_row(bits), "unit index out of range");
  return row.extract_bits(unit * 2 * bits, 2 * bits);
}

// ---- accounting helpers -----------------------------------------------------

Component ImcMacro::compute_price(RowRef a, RowRef b) const {
  // Dummy-segment computes are short-BL accesses; the *adaptive* separator's
  // energy benefit shows up on write-back (see energy model header).
  return (a.is_dummy() && b.is_dummy()) ? Component::DualWlComputeNear
                                        : Component::DualWlComputeMain;
}

Component ImcMacro::wb_price() const {
  return cfg_.separator == SeparatorMode::Enabled ? Component::WriteBackNear
                                                  : Component::WriteBackFull;
}

void ImcMacro::charge(Component c, double bits) {
  const Joule e = energy_.price(c, cfg_.vdd) * bits;
  pending_energy_ += e;
  component_energy_[static_cast<std::size_t>(c)] += e;
}

Joule ImcMacro::component_energy(Component c) const {
  return component_energy_[static_cast<std::size_t>(c)];
}

void ImcMacro::finish_op(unsigned cycles) {
  last_ = ExecStats{cycles, pending_energy_};
  total_cycles_ += cycles;
  total_energy_ += pending_energy_;
  pending_energy_ = Joule(0.0);
}

void ImcMacro::write_back(RowRef dest, const BitVector& data, double charged_bits) {
  if (cfg_.separator == SeparatorMode::Enabled && dest.is_dummy())
    array_.set_separated(true);  // adaptive: cut the heavy main-segment BL
  array_.write_row(dest, data);
  array_.set_separated(false);
  const Component wb = dest.is_dummy() ? wb_price() : Component::WriteBackFull;
  charge(wb, charged_bits);
}

BlReadout ImcMacro::sense_dual(RowRef a, RowRef b) {
  if (cfg_.separator == SeparatorMode::Enabled && a.is_dummy() && b.is_dummy())
    array_.set_separated(true);
  BlReadout r = array_.compute_dual(a, b);
  array_.set_separated(false);
  maybe_disturb(a, b);
  return r;
}

void ImcMacro::maybe_disturb(RowRef a, RowRef b) {
  if (!cfg_.inject_disturb || disturb_.flip_probability <= 0.0) return;
  // Vulnerable columns hold complementary data: one cell discharges a BL and
  // the other cell's node on that BL sags toward it (paper Fig 1).
  const BitVector vulnerable = array_.row(a) ^ array_.row(b);
  const std::size_t slots = 2 * vulnerable.popcount();  // cell in a, cell in b per column
  if (slots == 0) return;
  // Geometric-skip sampling: instead of one Bernoulli draw per vulnerable
  // cell, draw the gap to the next flip directly -- Geometric(p) -- so the
  // common no-flip compute costs one draw, not 2V. The flipped-cell
  // marginals are identical to the per-cell scan.
  const double denom = std::log1p(-disturb_.flip_probability);  // -inf at p == 1: every slot flips
  double gap = std::floor(std::log1p(-rng_.uniform()) / denom);
  if (!(gap < static_cast<double>(slots))) return;
  // At least one flip: materialize the vulnerable column list once.
  std::vector<std::size_t> cols;
  cols.reserve(slots / 2);
  vulnerable.for_each_set_bit([&](std::size_t c) { cols.push_back(c); });
  std::size_t j = 0;
  for (;;) {
    j += static_cast<std::size_t>(gap);
    const std::size_t c = cols[j / 2];
    const RowRef victim = (j % 2 == 0) ? a : b;
    array_.set(victim, c, !array_.get(victim, c));
    ++disturb_flips_;
    ++j;
    gap = std::floor(std::log1p(-rng_.uniform()) / denom);
    if (!(gap < static_cast<double>(slots - j))) return;
  }
}

void ImcMacro::reset_counters() {
  total_cycles_ = 0;
  total_energy_ = Joule(0.0);
  component_energy_.fill(Joule(0.0));
  disturb_flips_ = 0;
  last_ = ExecStats{};
}

BitVector ImcMacro::read_row(std::size_t r) {
  const BlReadout out = array_.read_single(RowRef::main(r));
  charge(Component::SingleWlRead, static_cast<double>(cols()));
  finish_op(1);
  return out.bl_and;
}

void ImcMacro::write_row(std::size_t r, const BitVector& data) {
  charge(Component::WriteBackFull, static_cast<double>(cols()));
  array_.write_row(RowRef::main(r), data);
  finish_op(1);
}

Second scheme_cycle_time(const MacroConfig& cfg, const timing::FreqModel& freq) {
  const bool sep = cfg.separator == SeparatorMode::Enabled;
  switch (cfg.wl_scheme) {
    case WlScheme::ShortPulseBoost:
      return period_of(freq.fmax(cfg.vdd, sep));
    case WlScheme::Wlud: {
      // WL activation + sensing replaced by the WLUD BL computation phase
      // (~1.86 ns at 0.9 V from the transient model), supply-scaled.
      const auto b = freq.breakdown(cfg.vdd, sep);
      const double k = freq.config().scaling.factor(cfg.vdd);
      return b.bl_precharge + Second(1.86e-9 * k) + b.logic + b.write_back;
    }
    case WlScheme::FullSwingLong: {
      // Full-current discharge without boost (~0.42 ns at 0.9 V) -- fast but
      // destructive (see DisturbModel).
      const auto b = freq.breakdown(cfg.vdd, sep);
      const double k = freq.config().scaling.factor(cfg.vdd);
      return b.bl_precharge + Second(0.42e-9 * k) + b.logic + b.write_back;
    }
  }
  return period_of(freq.fmax(cfg.vdd, sep));
}

Hertz ImcMacro::fmax() const { return frequency_of(cycle_time()); }

// ---- compute operations -----------------------------------------------------

BitVector ImcMacro::logic_rows(LogicFn fn, RowRef a, RowRef b) {
  const BlReadout r = sense_dual(a, b);
  BitVector out = FaLogics::logic(r, fn);
  const double n = static_cast<double>(cols());
  charge(compute_price(a, b), n);
  charge(Component::FaLogic, n);
  finish_op(1);
  return out;
}

BitVector ImcMacro::unary_row(Op op, RowRef src, RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift, "not a single-WL op");
  const BlReadout r = array_.read_single(src);
  BitVector out(cols());
  switch (op) {
    case Op::Not: out = r.bl_nor; break;
    case Op::Copy: out = r.bl_and; break;
    case Op::Shift:
      // <<1 within every precision word via the carry-propagation path.
      (void)words_per_row(bits);  // precision validation, as the seed path had
      out = r.bl_and;
      out.shl1_in_fields(bits);
      break;
    default: break;
  }
  const double n = static_cast<double>(cols());
  charge(Component::SingleWlRead, n);
  charge(Component::Inverter, n);
  write_back(dest, out, n);
  finish_op(1);
  return out;
}

BitVector ImcMacro::add_rows(RowRef a, RowRef b, unsigned bits, std::optional<RowRef> dest,
                             bool carry_in) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  const BlReadout r = sense_dual(a, b);
  periph::AddResult res = FaLogics::add(r, bits, carry_in);
  const double n = static_cast<double>(cols());
  charge(compute_price(a, b), n);
  charge(Component::FaLogic, n);
  if (dest) write_back(*dest, res.sum, n);
  finish_op(1);
  return std::move(res.sum);
}

BitVector ImcMacro::add_shift_rows(RowRef a, RowRef b, unsigned bits, RowRef dest) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  const BlReadout r = sense_dual(a, b);
  periph::AddResult res = FaLogics::add(r, bits, false);
  // The propagated-sum path writes S[n-1] into column n (MX0 + Y-path FF).
  const std::size_t words = words_per_row(bits);
  BitVector out = std::move(res.sum);
  out.shl1_in_fields(bits);
  const double n = static_cast<double>(cols());
  charge(compute_price(a, b), n);
  charge(Component::FaLogic, n);
  charge(Component::FlipFlop, static_cast<double>(words));
  write_back(dest, out, n);
  finish_op(1);
  return out;
}

BitVector ImcMacro::sub_rows(RowRef a, RowRef b, unsigned bits) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  // Cycle 1: NOT(b) -> dummy operand row.
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  const BlReadout rb = array_.read_single(b);
  const double n = static_cast<double>(cols());
  charge(Component::SingleWlRead, n);
  charge(Component::Inverter, n);
  write_back(d1, rb.bl_nor, n);
  // Cycle 2: a + ~b + 1 (two's complement).
  const BlReadout r = sense_dual(a, d1);
  periph::AddResult res = FaLogics::add(r, bits, true);
  charge(compute_price(a, d1), n);
  charge(Component::FaLogic, n);
  finish_op(2);
  return std::move(res.sum);
}

BitVector ImcMacro::mult_rows(RowRef a, RowRef b, unsigned bits, const AdaptivePolicy& policy) {
  return mult_impl(a, b, bits, plan_mult(a, b, bits, policy));
}

BitVector ImcMacro::mult_rows_chained(RowRef a, RowRef b, unsigned bits, bool d1_staged,
                                      bool pipelined, const AdaptivePolicy& policy) {
  BPIM_REQUIRE(!d1_staged || pipelined, "D1 staging implies a pipelined chain link");
  return mult_impl(a, b, bits, plan_mult(a, b, bits, policy, d1_staged, pipelined));
}

BitVector ImcMacro::mult_rows_planned(RowRef a, RowRef b, unsigned bits, const MultPlan& plan) {
  BPIM_REQUIRE(plan.depth <= bits, "plan depth exceeds the operand precision");
  BPIM_REQUIRE(!plan.skip || plan.depth == 0, "a skipped MULT runs no iterations");
  BPIM_REQUIRE(!plan.d1_staged || plan.pipelined, "D1 staging implies a pipelined chain link");
  return mult_impl(a, b, bits, plan);
}

MultPlan ImcMacro::plan_mult(RowRef a, RowRef b, unsigned bits, const AdaptivePolicy& policy,
                             bool d1_staged, bool pipelined) const {
  MultPlan plan = MultPlan::full(bits, d1_staged, pipelined);
  if (!policy.enabled()) return plan;
  (void)mult_units_per_row(bits);  // precision/width validation
  const std::size_t unit_bits = 2 * static_cast<std::size_t>(bits);
  // Effectual operand view: the low half of every 2N-bit unit (unit_bits
  // divides 64 for every supported precision, so one mask word covers all).
  std::uint64_t low_halves = 0;
  for (std::size_t i = 0; i < 64; i += unit_bits) low_halves |= ((1ull << bits) - 1) << i;
  const std::uint64_t field_fill =
      unit_bits >= 64 ? ~0ull : ((1ull << unit_bits) - 1);  // disjoint fields: no carry
  const std::uint64_t unit_lsbs = BitVector::periodic_mask(unit_bits);
  const BitVector& row_a = array_.row(a);
  const BitVector& row_b = array_.row(b);
  // A zero multiplicand unit makes every multiplier bit of that unit
  // ineffectual (sum == accumulator == 0 whatever the select bit says).
  // One allocation-free pass (the planner sits on the MULT hot path): per
  // word, OR-fold each multiplicand field onto its LSB (sub-field shifts
  // cannot push a higher field's bits down to a lower field's LSB), expand
  // the zero flags to full-field masks, drop those multiplier fields, and
  // accumulate the surviving multiplier bits. Phantom fields past the row
  // end hold zero multiplier bits, so they cannot contribute.
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < row_a.word_count(); ++w) {
    std::uint64_t aw = row_a.word(w) & low_halves;
    const std::uint64_t bw = row_b.word(w) & low_halves;
    for (std::size_t s = 1; s < unit_bits; s <<= 1) aw |= aw >> s;
    acc |= bw & ~((~aw & unit_lsbs) * field_fill);
  }
  unsigned eff = 0;
  if (acc != 0) {
    // Fold every unit onto the low one (unit-multiple shifts preserve
    // in-field positions); the residue's bit width is the max effectual
    // multiplier depth across the row.
    for (std::size_t s = unit_bits; s < 64; s <<= 1) acc |= acc >> s;
    eff = static_cast<unsigned>(std::bit_width(unit_bits >= 64 ? acc : acc & field_fill));
  }
  if (policy.narrow_precision) plan.depth = eff;
  if (policy.skip_zero && eff == 0) {
    plan.skip = true;
    plan.depth = 0;
  }
  return plan;
}

BitVector ImcMacro::mult_impl(RowRef a, RowRef b, unsigned bits, const MultPlan& plan) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  const std::size_t units = mult_units_per_row(bits);
  const unsigned unit_bits = 2 * bits;
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  const RowRef d2 = RowRef::dummy(kDummyAccum);
  const auto& p = energy_.params();
  const double n_units = static_cast<double>(units);

  // Cycle 1: zero-init the accumulator row; load the multiplier FFs
  // (MSB-first release order -- the reversed B[3:0] -> B[0:3] of Fig 5).
  BitVector zeros(cols());
  write_back(d2, zeros, static_cast<double>(cols()) * p.zero_init_activity);
  const BlReadout rb = array_.read_single(b);
  charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
  charge(Component::FlipFlop, static_cast<double>(bits) * n_units);
  std::vector<std::uint64_t> ff(units, 0);
  for (std::size_t u = 0; u < units; ++u)
    ff[u] = rb.bl_and.extract_bits(u * unit_bits, bits);

  // Cycle 2: copy the multiplicand into the dummy operand row (low halves):
  // mask off the high half of every unit in one word-parallel AND. A
  // d1-staged chain link skips the whole cycle -- the previous MULT of the
  // same multiplicand left exactly this masked copy in D1 (the add-shift
  // iterations only write D2), so neither the read nor the staging
  // write-back happens. A skipped MULT (all products provably zero) elides
  // it too: the zero-initialised accumulator row already IS the result.
  if (!plan.skip && !plan.d1_staged) {
    const BlReadout ra = array_.read_single(a);
    std::uint64_t low_halves = 0;  // low `bits` of each unit set (unit_bits divides 64)
    for (std::size_t i = 0; i < 64; i += unit_bits) low_halves |= ((1ull << bits) - 1) << i;
    BitVector a_copy = ra.bl_and;
    for (std::size_t w = 0; w < a_copy.word_count(); ++w)
      a_copy.set_word(w, a_copy.word(w) & low_halves);
    charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
    write_back(d1, a_copy, static_cast<double>(bits) * n_units);
  }

  // Cycles 3..N+2: (N-1) add-and-shift iterations plus the final ADD.
  // acc <- (ff_bit ? acc + A : acc), shifted left except on the last cycle.
  // The per-unit FF bit selects between sum and accumulator through a
  // broadcast field mask; the <<1 is the word-parallel in-field shift. All
  // scratch (AddResult, select mask, next row) is reused across iterations.
  // An adaptive plan starts at k = bits - depth: every dropped leading
  // iteration is a per-unit no-op (multiplier bit zero keeps the still-zero
  // accumulator, and a shift of zero is zero; zero-multiplicand units see
  // sum == accumulator == 0 either way), so products are bit-identical.
  periph::AddResult res;
  BitVector sel(cols());
  BitVector next(cols());
  for (unsigned k = bits - plan.depth; k < bits; ++k) {
    const bool last = (k + 1 == bits);
    const BlReadout r = sense_dual(d1, d2);
    FaLogics::add_into(r, unit_bits, false, res);
    const BitVector& acc = array_.row(d2);
    for (std::size_t u = 0; u < units; ++u) {
      const bool take_sum = (ff[u] >> (bits - 1 - k)) & 1u;  // MSB-first
      sel.deposit_bits(u * unit_bits, unit_bits, take_sum ? ~0ull : 0);
    }
    for (std::size_t w = 0; w < next.word_count(); ++w) {
      const std::uint64_t s = sel.word(w);
      next.set_word(w, (res.sum.word(w) & s) | (acc.word(w) & ~s));
    }
    if (!last) next.shl1_in_fields(unit_bits);  // <<1 via the propagation path
    charge(compute_price(d1, d2), static_cast<double>(cols()));
    charge(Component::FaLogic, static_cast<double>(cols()));
    charge(Component::FlipFlop, n_units);
    write_back(d2, next, static_cast<double>(cols()) * p.mult_wb_activity);
  }

  // The plan owns the cycle split; op_cycles(MULT, bits) == plan.cycles()
  // + plan.fused_cycles_saved() + plan.adaptive_cycles_saved(bits) exactly
  // (the controller asserts it per instruction).
  finish_op(plan.cycles());
  return array_.row(d2);
}

}  // namespace bpim::macro
