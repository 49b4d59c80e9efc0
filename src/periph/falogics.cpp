#include "periph/falogics.hpp"

namespace bpim::periph {

const char* to_string(LogicFn fn) {
  switch (fn) {
    case LogicFn::And: return "AND";
    case LogicFn::Nand: return "NAND";
    case LogicFn::Or: return "OR";
    case LogicFn::Nor: return "NOR";
    case LogicFn::Xor: return "XOR";
    case LogicFn::Xnor: return "XNOR";
    case LogicFn::PassA: return "PASS";
    case LogicFn::NotA: return "NOT";
  }
  return "??";
}

namespace {

// f(bl_and word, bl_nor word) over every word, written straight into the
// result (no intermediate vectors).
template <class F>
BitVector combine(const array::BlReadout& r, F f) {
  BitVector out(r.bl_and.size());
  for (std::size_t k = 0, n = out.word_count(); k < n; ++k)
    out.set_word(k, f(r.bl_and.word(k), r.bl_nor.word(k)));
  return out;
}

}  // namespace

BitVector FaLogics::xor_bits(const array::BlReadout& r) {
  return combine(r, [](std::uint64_t a, std::uint64_t n) { return ~(a | n); });
}

BitVector FaLogics::xnor_bits(const array::BlReadout& r) {
  return combine(r, [](std::uint64_t a, std::uint64_t n) { return a | n; });
}

BitVector FaLogics::logic(const array::BlReadout& r, LogicFn fn) {
  switch (fn) {
    case LogicFn::And: return r.bl_and;
    case LogicFn::Nand: return ~r.bl_and;
    case LogicFn::Or: return ~r.bl_nor;
    case LogicFn::Nor: return r.bl_nor;
    case LogicFn::Xor: return xor_bits(r);
    case LogicFn::Xnor: return xnor_bits(r);
    case LogicFn::PassA: return r.bl_and;  // single-WL: BLT carries A
    case LogicFn::NotA: return r.bl_nor;   // single-WL: BLB carries ~A
  }
  return r.bl_and;
}

namespace {

// a + b + cin (cin in {0,1}) with carry-out, without __int128.
inline std::uint64_t addc_u64(std::uint64_t a, std::uint64_t b, std::uint64_t cin,
                              std::uint64_t& sum) {
  const std::uint64_t t = a + cin;
  sum = t + b;
  return static_cast<std::uint64_t>((t < cin) | (sum < b));
}

// Fast path: fields of `precision` bits never straddle a storage word
// (precision divides 64), so every word is one partitioned addition.
void add_swar(const array::BlReadout& r, unsigned precision, bool carry_in, AddResult& out) {
  // P = A&B and Q = A|B add exactly like A and B (see header).
  const std::uint64_t lsb = BitVector::periodic_mask(precision);
  const std::uint64_t msb = lsb << (precision - 1);
  const std::uint64_t cin_m = carry_in ? lsb : 0;
  for (std::size_t k = 0; k < out.sum.word_count(); ++k) {
    const std::uint64_t p = r.bl_and.word(k);
    const std::uint64_t q = ~r.bl_nor.word(k);  // garbage past size() is above every field
    // Clearing the field MSBs keeps every partial add inside its field; the
    // MSB sum bits are xor-ed back in, the MSB carry-out is the majority.
    const std::uint64_t s_low = (p & ~msb) + (q & ~msb) + cin_m;
    const std::uint64_t sum = s_low ^ ((p ^ q) & msb);
    const std::uint64_t c_in = p ^ q ^ sum;  // carry INTO each stage
    const std::uint64_t c_msb = ((p & q) | ((p | q) & c_in)) & msb;
    // Stage n's carry-out is stage n+1's carry-in, except at field MSBs
    // (where >>1 would smear the next field's seed across the boundary).
    const std::uint64_t carry = ((c_in >> 1) & ~msb) | c_msb;
    out.sum.set_word(k, sum);
    out.carry.set_word(k, carry);
    out.word_carry.set_word(k, c_msb);
  }
}

// General path (precision does not divide 64, or exceeds it): walk each
// field in 64-bit chunks, propagating the carry between chunks. Still
// word-at-a-time -- only the chunk bookkeeping is scalar.
void add_chunked(const array::BlReadout& r, unsigned precision, bool carry_in, AddResult& out) {
  const std::size_t width = r.bl_and.size();
  for (std::size_t base = 0; base < width; base += precision) {
    std::uint64_t c = carry_in ? 1 : 0;
    for (std::size_t o = 0; o < precision; o += 64) {
      const std::size_t len = precision - o < 64 ? precision - o : 64;
      const std::uint64_t mask = len == 64 ? ~0ull : (1ull << len) - 1;
      const std::uint64_t p = r.bl_and.extract_bits(base + o, len);
      const std::uint64_t q = ~r.bl_nor.extract_bits(base + o, len) & mask;
      std::uint64_t sum = 0;
      std::uint64_t cout = 0;
      if (len == 64) {
        cout = addc_u64(p, q, c, sum);
      } else {
        sum = p + q + c;
        cout = (sum >> len) & 1u;
        sum &= mask;
      }
      const std::uint64_t c_in = p ^ q ^ sum;
      const std::uint64_t carry = ((c_in >> 1) & (mask >> 1)) | (cout << (len - 1));
      out.sum.deposit_bits(base + o, len, sum);
      out.carry.deposit_bits(base + o, len, carry);
      c = cout;
    }
    out.word_carry.set(base + precision - 1, c != 0);
  }
}

}  // namespace

void FaLogics::add_into(const array::BlReadout& r, unsigned precision, bool carry_in,
                        AddResult& out) {
  const std::size_t width = r.bl_and.size();
  BPIM_REQUIRE(precision >= 1, "precision must be at least 1 bit");
  BPIM_REQUIRE(width % precision == 0, "precision must divide the row width");
  out.sum.reset(width);
  out.carry.reset(width);
  out.word_carry.reset(width);
  if (width == 0) return;
  if (precision <= 64 && 64 % precision == 0)
    add_swar(r, precision, carry_in, out);
  else
    add_chunked(r, precision, carry_in, out);
}

AddResult FaLogics::add(const array::BlReadout& r, unsigned precision, bool carry_in) {
  AddResult out;
  add_into(r, precision, carry_in, out);
  return out;
}

}  // namespace bpim::periph
