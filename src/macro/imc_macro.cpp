#include "macro/imc_macro.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

using array::BlReadout;
using array::RowRef;
using energy::Component;
using energy::SeparatorMode;
using periph::FaLogics;
using periph::LogicFn;

namespace {

// SWAR masks of one MULT precision N over a 64-bit storage word. The 2N-bit
// units divide 64 at every supported precision, so one word of each mask
// covers every unit of every word, and no unit straddles a word.
struct UnitMasks {
  std::uint64_t low_halves = 0;  ///< the low N bits (operand half) of every unit
  std::uint64_t unit_lsbs = 0;   ///< bit 0 of every unit
  std::uint64_t unit_msbs = 0;   ///< bit 2N-1 of every unit
  std::uint64_t field_fill = 0;  ///< one whole unit: flag-at-LSB * fill == full-unit mask
};

constexpr UnitMasks unit_masks_of(unsigned bits) {
  const unsigned unit_bits = 2 * bits;
  UnitMasks m;
  m.field_fill = unit_bits >= 64 ? ~0ull : (1ull << unit_bits) - 1;  // disjoint fields: no carry
  for (unsigned i = 0; i < 64; i += unit_bits) {
    m.low_halves |= ((1ull << bits) - 1) << i;
    m.unit_lsbs |= 1ull << i;
    m.unit_msbs |= 1ull << (i + unit_bits - 1);
  }
  return m;
}

// Indexed by log2(N) - 1 over the supported precisions 2..32.
constexpr std::array<UnitMasks, 5> kUnitMasks = {unit_masks_of(2), unit_masks_of(4),
                                                 unit_masks_of(8), unit_masks_of(16),
                                                 unit_masks_of(32)};

const UnitMasks& unit_masks(unsigned bits) {
  return kUnitMasks[static_cast<std::size_t>(std::countr_zero(bits)) - 1];
}

/// The 2N-bit unit whose field starts at bit `shift` of a storage word.
constexpr std::uint64_t unit_field(std::uint64_t word, unsigned shift, std::uint64_t fill) {
  return (word >> shift) & fill;
}

/// A MULT run's masked multiplicand, stage[w] = src[w] & keep, and its
/// nonzero-unit mask: adding (2^(2N-1) - 1) to every unit's low 2N-1 bits
/// carries into the unit's MSB iff they are nonzero, never out of the unit.
void stage_multiplicand(const BitVector& src, std::uint64_t keep, unsigned bits,
                        BitVector& stage, BitVector& nonzero) {
  const UnitMasks& m = unit_masks(bits);
  for (std::size_t w = 0, n = src.word_count(); w < n; ++w) {
    const std::uint64_t a = src.word(w) & keep;
    const std::uint64_t msbs = ((((a & ~m.unit_msbs) + ~m.unit_msbs) | a) & m.unit_msbs);
    stage.set_word(w, a);
    nonzero.set_word(w, (msbs >> (2 * bits - 1)) * m.field_fill);
  }
}

// A storage word as native lanes where a 2N-bit unit is one: 16-bit lanes
// for 8-bit MULTs, 32-bit lanes for 16-bit MULTs (GCC vector extensions;
// on the SSE2 baseline the 16-bit product is one pmullw).
using U16x4 [[gnu::vector_size(8)]] = std::uint16_t;
using U32x2 [[gnu::vector_size(8)]] = std::uint32_t;

/// Every 2N-bit unit's product of two storage words, mod 2^2N.
template <unsigned N>
std::uint64_t unit_products(std::uint64_t a, std::uint64_t b) {
  if constexpr (N == 8) {
    return std::bit_cast<std::uint64_t>(std::bit_cast<U16x4>(a) * std::bit_cast<U16x4>(b));
  } else if constexpr (N == 16) {
    return std::bit_cast<std::uint64_t>(std::bit_cast<U32x2>(a) * std::bit_cast<U32x2>(b));
  } else {  // 2- and 4-bit units, and one 64-bit unit at N == 32
    constexpr std::uint64_t kFill = unit_masks_of(N).field_fill;
    std::uint64_t p = 0;
    for (unsigned s = 0; s < 64; s += 2 * N)
      p |= ((unit_field(a, s, kFill) * unit_field(b, s, kFill)) & kFill) << s;
    return p;
  }
}

/// The 2N-bit units U... of a product word into out[U...], unrolled.
template <unsigned N, std::size_t... U>
void put_units(std::uint64_t p, std::uint64_t* out, std::index_sequence<U...>) {
  ((out[U] = unit_field(p, U * 2 * N, unit_masks_of(N).field_fill)), ...);
}

/// The MULT product kernel at precision N: per word w and unit, p[w] =
/// stage[w] * (mplier[w] & keep) mod 2^2N into word w of `prod` when given
/// (after reading mplier's) and unit i into out[i] for i < out.size().
/// Returns the OR of the multiplier halves of every unit with a nonzero
/// multiplicand, folded onto unit 0: its bit width is the effectual depth.
template <unsigned N>
std::uint64_t mult_kernel(const BitVector& stage, const BitVector& nonzero,
                          const BitVector& mplier, std::uint64_t keep, BitVector* prod,
                          std::span<std::uint64_t> out) {
  constexpr unsigned kUnitBits = 2 * N;
  constexpr std::size_t kPerWord = 64 / kUnitBits;
  constexpr std::uint64_t kFill = unit_masks_of(N).field_fill;
  std::uint64_t acc = 0;
  for (std::size_t w = 0, n = stage.word_count(); w < n; ++w) {
    const std::uint64_t b = mplier.word(w) & keep;
    acc |= b & nonzero.word(w);
    const std::uint64_t p = unit_products<N>(stage.word(w), b);
    if (prod != nullptr) prod->set_word(w, p);
    const std::size_t first = w * kPerWord;
    if (first + kPerWord <= out.size())
      put_units<N>(p, &out[first], std::make_index_sequence<kPerWord>{});
    else
      for (std::size_t i = first, s = 0; i < out.size(); ++i, s += kUnitBits)
        out[i] = unit_field(p, static_cast<unsigned>(s), kFill);
  }
  // Fold every unit onto the low one (unit-multiple shifts preserve in-field
  // positions).
  for (unsigned s = kUnitBits; s < 64; s <<= 1) acc |= acc >> s;
  return acc & kFill;
}

/// Bulk product extraction at precision N: out[i] = the 2N-bit unit i of
/// `row`. Whole storage words first, then the partial last one; templated
/// on N so the per-word unit loop unrolls over constant shifts.
template <unsigned N>
void product_extract(const BitVector& row, std::span<std::uint64_t> out) {
  constexpr unsigned kUnitBits = 2 * N;
  constexpr std::size_t kPerWord = 64 / kUnitBits;
  constexpr std::uint64_t kFill = unit_masks_of(N).field_fill;
  std::size_t i = 0;
  for (std::size_t w = 0; i + kPerWord <= out.size(); ++w, i += kPerWord) {
    const std::uint64_t word = row.word(w);
    for (std::size_t u = 0; u < kPerWord; ++u)
      out[i + u] = unit_field(word, static_cast<unsigned>(u * kUnitBits), kFill);
  }
  if (i == out.size()) return;
  const std::uint64_t word = row.word(i / kPerWord);
  for (unsigned s = 0; i < out.size(); ++i, s += kUnitBits) out[i] = unit_field(word, s, kFill);
}

using ProductExtract = void (*)(const BitVector&, std::span<std::uint64_t>);
constexpr std::array<ProductExtract, 5> kProductExtract = {
    &product_extract<2>, &product_extract<4>, &product_extract<8>, &product_extract<16>,
    &product_extract<32>};

}  // namespace

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

MultPrices::Pricing MultPrices::pricing_of(const MacroConfig& cfg) {
  const energy::EnergyModel model(cfg.energy_params);
  Pricing p;
  for (std::size_t c = 0; c < p.price.size(); ++c)
    p.price[c] = model.price(static_cast<Component>(c), cfg.vdd);
  p.zero_init_activity = cfg.energy_params.zero_init_activity;
  p.mult_wb_activity = cfg.energy_params.mult_wb_activity;
  p.cols = cfg.geometry.cols;
  p.wb = cfg.separator == SeparatorMode::Enabled ? Component::WriteBackNear
                                                 : Component::WriteBackFull;
  return p;
}

MultPrices::MultPrices(const Pricing& pricing) : pricing_(pricing) {
  // Per precision and staging, fold the setup charges, then one add-shift
  // iteration at a time: the tally after `depth` iterations is that plan's
  // whole charge. The sequence and arithmetic are ImcMacro::charge()'s in
  // the sequencer's order (zero-init, FF load, staging, iterations), so
  // each entry equals the per-charge fold bit for bit.
  charges_.reserve(kFirst.back() + 2 * (32 + 1));
  const double n = static_cast<double>(pricing.cols);
  for (unsigned bits = 2; bits <= 32; bits *= 2) {
    const double n_units = static_cast<double>(pricing.cols / (2 * static_cast<std::size_t>(bits)));
    const double operand_bits = static_cast<double>(bits) * n_units;
    for (unsigned staging = 0; staging < 2; ++staging) {
      Charge t;
      const auto charge = [&](Component c, double charged_bits) {
        const auto k = static_cast<std::size_t>(c);
        const Joule e = pricing.price[k] * charged_bits;
        t.energy += e;
        t.by_component[k] += e;
      };
      charge(pricing.wb, n * pricing.zero_init_activity);
      charge(Component::SingleWlRead, operand_bits);
      charge(Component::FlipFlop, operand_bits);
      if (staging > 0) {
        charge(Component::SingleWlRead, operand_bits);
        charge(pricing.wb, operand_bits);
      }
      charges_.push_back(t);
      for (unsigned k = 0; k < bits; ++k) {
        // Every iteration senses D1 and D2: a dummy-segment compute.
        charge(Component::DualWlComputeNear, n);
        charge(Component::FaLogic, n);
        charge(Component::FlipFlop, n_units);
        charge(pricing.wb, n * pricing.mult_wb_activity);
        charges_.push_back(t);
      }
    }
  }
}

ImcMacro::ImcMacro(const MacroConfig& cfg, std::shared_ptr<const MultPrices> mult_prices)
    : cfg_(cfg),
      array_(cfg.geometry),
      cycle_time_(scheme_cycle_time(cfg, timing::FreqModel(cfg.freq))),
      mult_prices_(std::move(mult_prices)),
      disturb_(DisturbModel::for_scheme(cfg.wl_scheme)),
      rng_(cfg.seed),
      wb_(cfg.geometry.cols),
      stage_(cfg.geometry.cols),
      stage_nonzero_(cfg.geometry.cols) {
  BPIM_REQUIRE(cfg.geometry.dummy_rows >= 3, "the sequencer needs three dummy rows");
  const MultPrices::Pricing pricing = MultPrices::pricing_of(cfg);
  price_ = pricing.price;
  if (!mult_prices_) mult_prices_ = std::make_shared<const MultPrices>(pricing);
  BPIM_REQUIRE(mult_prices_->pricing() == pricing,
               "MULT price table was built for a different pricing");
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

void deposit_fields(BitVector& row, std::size_t col, unsigned field, unsigned bits,
                    std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(col + values.size() * field <= row.size(), "column range out of range");
  std::uint64_t any = 0;
  for (const std::uint64_t v : values) any |= v;
  BPIM_REQUIRE(BitVector::fits_u64(any, bits), "value does not fit precision");
  for (std::size_t i = 0; i < values.size();) {
    const std::size_t start = col + i * field;
    std::uint64_t word = 0;
    std::size_t len = 0;
    for (; i < values.size() && start % 64 + len < 64; ++i, len += field) word |= values[i] << len;
    row.deposit_bits(start, len, word);
  }
}

void ImcMacro::poke_words(std::size_t r, std::size_t first_word, unsigned bits,
                          std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(first_word + values.size() <= words_per_row(bits), "word range out of range");
  deposit_fields(array_.row_mut(RowRef::main(r)), first_word * bits, bits, bits, values);
}

void ImcMacro::poke_zero_tail(std::size_t r, std::size_t col) {
  BPIM_REQUIRE(col <= cols(), "column out of range");
  for (std::size_t len = 0; col < cols(); col += len) {
    len = std::min(64 - col % 64, cols() - col);
    array_.deposit_bits(RowRef::main(r), col, len, 0);
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
  // Operand in each unit's low half, zeros above.
  deposit_fields(array_.row_mut(RowRef::main(r)), first_unit * 2 * bits, 2 * bits, bits, values);
}

std::uint64_t ImcMacro::peek_mult_product(const BitVector& row, std::size_t unit,
                                          unsigned bits) const {
  BPIM_REQUIRE(unit < mult_units_per_row(bits), "unit index out of range");
  return row.extract_bits(unit * 2 * bits, 2 * bits);
}

void ImcMacro::peek_mult_products(const BitVector& row, unsigned bits,
                                  std::span<std::uint64_t> out) const {
  BPIM_REQUIRE(out.size() <= mult_units_per_row(bits), "unit range out of range");
  BPIM_REQUIRE(row.size() == cols(), "row width mismatch");
  kProductExtract[static_cast<std::size_t>(std::countr_zero(bits)) - 1](row, out);
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
  const Joule e = price_[static_cast<std::size_t>(c)] * bits;
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

void ImcMacro::store(RowRef dest, const BitVector& data) {
  if (cfg_.separator == SeparatorMode::Enabled && dest.is_dummy())
    array_.set_separated(true);  // adaptive: cut the heavy main-segment BL
  array_.write_row(dest, data);
  array_.set_separated(false);
}

void ImcMacro::write_back(RowRef dest, const BitVector& data, double charged_bits) {
  store(dest, data);
  const Component wb = dest.is_dummy() ? wb_price() : Component::WriteBackFull;
  charge(wb, charged_bits);
}

const BlReadout& ImcMacro::sense_dual(RowRef a, RowRef b) {
  if (cfg_.separator == SeparatorMode::Enabled && a.is_dummy() && b.is_dummy())
    array_.set_separated(true);
  array_.compute_dual(a, b, sense_);
  array_.set_separated(false);
  maybe_disturb(a, b);
  return sense_;
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
  array_.read_single(RowRef::main(r), sense_);
  charge(Component::SingleWlRead, static_cast<double>(cols()));
  finish_op(1);
  return sense_.bl_and;
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
  const BlReadout& r = sense_dual(a, b);
  BitVector out = FaLogics::logic(r, fn);
  const double n = static_cast<double>(cols());
  charge(compute_price(a, b), n);
  charge(Component::FaLogic, n);
  finish_op(1);
  return out;
}

BitVector ImcMacro::unary_row(Op op, RowRef src, RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift, "not a single-WL op");
  array_.read_single(src, sense_);
  BitVector out(cols());
  switch (op) {
    case Op::Not: out = sense_.bl_nor; break;
    case Op::Copy: out = sense_.bl_and; break;
    case Op::Shift:
      // <<1 within every precision word via the carry-propagation path.
      (void)words_per_row(bits);  // precision validation, as the seed path had
      out = sense_.bl_and;
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
  FaLogics::add_into(sense_dual(a, b), bits, carry_in, fa_);
  const double n = static_cast<double>(cols());
  charge(compute_price(a, b), n);
  charge(Component::FaLogic, n);
  if (dest) write_back(*dest, fa_.sum, n);
  finish_op(1);
  return fa_.sum;
}

BitVector ImcMacro::add_shift_rows(RowRef a, RowRef b, unsigned bits, RowRef dest) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  FaLogics::add_into(sense_dual(a, b), bits, false, fa_);
  // The propagated-sum path writes S[n-1] into column n (MX0 + Y-path FF).
  const std::size_t words = words_per_row(bits);
  BitVector out = fa_.sum;
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
  array_.read_single(b, sense_);
  const double n = static_cast<double>(cols());
  charge(Component::SingleWlRead, n);
  charge(Component::Inverter, n);
  write_back(d1, sense_.bl_nor, n);
  // Cycle 2: a + ~b + 1 (two's complement).
  FaLogics::add_into(sense_dual(a, d1), bits, true, fa_);
  charge(compute_price(a, d1), n);
  charge(Component::FaLogic, n);
  finish_op(2);
  return fa_.sum;
}

BitVector ImcMacro::mult_rows(RowRef a, RowRef b, unsigned bits, const AdaptivePolicy& policy) {
  execute_mult(a, b, bits, policy);
  return array_.row(RowRef::dummy(kDummyAccum));
}

MultPlan ImcMacro::execute_mult(const RowRef& a, const RowRef& b, unsigned bits,
                                const AdaptivePolicy& policy, MacLink link) {
  const Instruction one{.op = Op::Mult, .a = a, .b = b, .bits = bits};
  ProgramStats stats;
  return execute_mult_run({&one, 1}, policy, link != MacLink::Head, link == MacLink::D1Staged,
                          {}, stats);
}

MultPlan ImcMacro::execute_mult_run(std::span<const Instruction> run,
                                    const AdaptivePolicy& policy, bool pipelined, bool d1_holds,
                                    std::span<Extract> records, ProgramStats& stats) {
  const unsigned bits = run.front().bits;
  (void)mult_units_per_row(bits);  // precision and unit-width validation
  static constexpr std::array<decltype(&ImcMacro::mult_run<2>), 5> kMultRun = {
      &ImcMacro::mult_run<2>, &ImcMacro::mult_run<4>, &ImcMacro::mult_run<8>,
      &ImcMacro::mult_run<16>, &ImcMacro::mult_run<32>};
  return (this->*kMultRun[static_cast<std::size_t>(std::countr_zero(bits)) - 1])(
      run, policy, pipelined, d1_holds, records, stats);
}

template <unsigned N>
MultPlan ImcMacro::mult_run(std::span<const Instruction> run, const AdaptivePolicy& policy,
                            bool pipelined, bool d1_holds, std::span<Extract> records,
                            ProgramStats& stats) {
  constexpr std::uint64_t kLowHalves = unit_masks_of(N).low_halves;
  const RowRef a = run.front().a;
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  const RowRef d2 = RowRef::dummy(kDummyAccum);
  const bool replay = cfg_.inject_disturb && disturb_.flip_probability > 0.0;
  const MultPrices::Charge* charges = mult_prices_->charges(N);
  // The ledger's and program's sums and tallies; energies stay left folds.
  std::uint64_t cycles = 0, fused = 0, adaptive = 0, skipped = 0;
  Joule ledger_energy = total_energy_;
  Joule program_energy = stats.energy;
  std::array<Joule, 8> components = component_energy_;

  // The multiplicand as the sequencer reads it (row a after cycle 1 zeroes
  // D2, or D1 as it stands on a d1-staged link) goes to stage_, and to D1
  // when a plan stages. A run resolves it once, since its one D1 write is
  // that copy; again only when a head MULT read row a without staging
  // before a d1-staged one, and per MULT under the disturb replay.
  bool latched = false;  // stage_ holds what the next MULT multiplies
  const MultPrices::Charge* priced = nullptr;
  MultPlan plan;
  for (std::size_t k = 0; k < run.size(); ++k) {
    const bool d1_staged = d1_holds && (k > 0 || pipelined);
    if (!latched || replay)
      stage_multiplicand(array_.row(d1_staged ? d1 : a),
                         d1_staged ? ~0ull : (a == d2 ? 0 : kLowHalves), N, stage_,
                         stage_nonzero_);
    const RowRef b = run[k].b;
    Extract* x = records.empty() ? nullptr : &records[k];
    // Products retire straight into a record at the MULT's precision. D2 is
    // written where it is read: by the run's last MULT and for a record at
    // another precision. The replay rebuilds D2 itself.
    const bool direct = x != nullptr && x->bits == N && !replay;
    BitVector* prod =
        !replay && (k + 1 == run.size() || (x != nullptr && !direct)) ? &array_.row_mut(d2)
                                                                      : nullptr;
    const std::uint64_t effectual =
        mult_kernel<N>(stage_, stage_nonzero_, array_.row(b), b == d2 ? 0 : kLowHalves, prod,
                       direct ? x->values : std::span<std::uint64_t>{});

    // The plan stays in registers (mult_loop takes it by value): a plan
    // stored bytewise and read back as wider loads stalls store forwarding.
    const auto eff = static_cast<unsigned>(std::bit_width(effectual));
    const bool skip = policy.skip_zero && eff == 0;
    plan = MultPlan{skip ? 0 : policy.narrow_precision ? eff : N, skip, d1_staged,
                    k > 0 || pipelined};

    // The data: the replay rebuilds D1 and D2 cycle by cycle; otherwise D1
    // is written once when the plan stages. The leading iterations a
    // narrowed or skipped plan drops are per-unit no-ops, so the kernel's
    // full-depth products are the plan's products.
    if (replay)
      mult_loop(a, b, N, plan);
    else if (plan.staging_cycles() > 0)
      store(d1, stage_);
    latched = plan.staging_cycles() > 0 || d1_staged || !d1_holds;
    d1_holds = d1_holds || plan.staging_cycles() > 0;

    // The account, on either path: the plan's MultPrices fold, booked into
    // the ledger and the program; its cycle split must conserve Table 1's.
    priced = &charges[plan.staging_cycles() * (N + 1) + plan.depth];
    const unsigned op_fused = plan.fused_cycles_saved();
    const unsigned op_adaptive = plan.adaptive_cycles_saved(N);
    BPIM_REQUIRE(plan.cycles() + op_fused + op_adaptive == op_cycles(Op::Mult, N),
                 "MULT cycle conservation violated (static != cycles + fused + adaptive)");
    cycles += plan.cycles();
    fused += op_fused;
    adaptive += op_adaptive;
    skipped += skip ? 1 : 0;
    ++stats.depths[plan.depth];
    ledger_energy += priced->energy;
    program_energy += priced->energy;
    for (std::size_t c = 0; c < components.size(); ++c) components[c] += priced->by_component[c];
    if (x != nullptr) {
      if (!direct) peek_mult_products(array_.row(d2), x->bits, x->values);
      x->cycles = plan.cycles();
      x->adaptive_cycles_saved = op_adaptive;
      x->op_energy = priced->energy;
      x->plan = plan;
    }
  }
  last_ = ExecStats{plan.cycles(), priced->energy};
  total_cycles_ += cycles;
  total_energy_ = ledger_energy;
  component_energy_ = components;
  stats.cycles += cycles;
  stats.fused_cycles_saved += fused;
  stats.adaptive_cycles_saved += adaptive;
  stats.skipped += skipped;
  stats.energy = program_energy;
  stats.mults += run.size();
  return plan;
}

void ImcMacro::mult_loop(RowRef a, RowRef b, unsigned bits, MultPlan plan) {
  const unsigned unit_bits = 2 * bits;
  const auto [low_halves, unit_lsbs, unit_msbs, field_fill] = unit_masks(bits);
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  const RowRef d2 = RowRef::dummy(kDummyAccum);

  // Cycle 1: zero-init the accumulator row; load the multiplier FFs
  // (MSB-first release order -- the reversed B[3:0] -> B[0:3] of Fig 5).
  // The FFs hold row b as read after the zero-init; only the low half of
  // each unit is ever selected from it.
  wb_.reset(cols());
  store(d2, wb_);
  ff_ = array_.row(b);

  // Cycle 2: copy the multiplicand into the dummy operand row (low halves):
  // mask off the high half of every unit in one word-parallel AND. A
  // d1-staged chain link skips the whole cycle -- the previous MULT of the
  // same multiplicand left exactly this masked copy in D1 (the add-shift
  // iterations only write D2). A skipped MULT (all products provably zero)
  // elides it too: the zero-initialised accumulator row already IS the
  // result.
  if (plan.staging_cycles() > 0) {
    const BitVector& row_a = array_.row(a);
    for (std::size_t w = 0, n = wb_.word_count(); w < n; ++w)
      wb_.set_word(w, row_a.word(w) & low_halves);
    store(d1, wb_);
  }

  // Cycles 3..N+2: (N-1) add-and-shift iterations plus the final ADD.
  // acc <- (ff_bit ? acc + A : acc), shifted left except on the last cycle.
  // Per word, the select mask is the FF bit of iteration k moved to each
  // unit's LSB and broadcast across the unit:
  //   ((ff_word >> (N-1-k)) & unit_lsbs) * field_fill
  // (a shift below N only brings a unit's own low-half bit onto its LSB).
  // The <<1 is the word-parallel in-field shift. Every sense is a dual-WL
  // access of D1 and D2, so injected flips land in the rows the next
  // iteration reads. An adaptive plan starts at k = bits - depth.
  for (unsigned k = bits - plan.depth; k < bits; ++k) {
    const bool last = (k + 1 == bits);
    const unsigned ff_shift = bits - 1 - k;  // MSB-first
    FaLogics::add_into(sense_dual(d1, d2), unit_bits, false, fa_);
    const BitVector& acc = array_.row(d2);
    for (std::size_t w = 0, n = wb_.word_count(); w < n; ++w) {
      const std::uint64_t sel = ((ff_.word(w) >> ff_shift) & unit_lsbs) * field_fill;
      const std::uint64_t v = (fa_.sum.word(w) & sel) | (acc.word(w) & ~sel);
      wb_.set_word(w, last ? v : (v << 1) & ~unit_lsbs);  // <<1 via the propagation path
    }
    store(d2, wb_);
  }
}

}  // namespace bpim::macro
