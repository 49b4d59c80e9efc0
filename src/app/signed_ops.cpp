#include "app/signed_ops.hpp"

#include <cmath>

#include "common/bitvec.hpp"
#include "common/require.hpp"

namespace bpim::app {

std::uint64_t encode_signed(std::int64_t v, unsigned bits) {
  BPIM_REQUIRE(bits >= 2 && bits <= 63, "signed width out of range");
  BPIM_REQUIRE(fits_signed(v, bits), "value out of signed range");
  const std::uint64_t mask = (1ull << bits) - 1;
  return static_cast<std::uint64_t>(v) & mask;
}

std::int64_t decode_signed(std::uint64_t code, unsigned bits) {
  BPIM_REQUIRE(bits >= 2 && bits <= 63, "signed width out of range");
  BPIM_REQUIRE(BitVector::fits_u64(code, bits), "code wider than the word");
  const std::uint64_t sign_bit = 1ull << (bits - 1);
  if (code & sign_bit) return static_cast<std::int64_t>(code) - (1ll << bits);
  return static_cast<std::int64_t>(code);
}

bool fits_signed(std::int64_t v, unsigned bits) {
  const std::int64_t lo = -(1ll << (bits - 1));
  const std::int64_t hi = (1ll << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

namespace {

std::vector<std::uint64_t> encode_all(const std::vector<std::int64_t>& v, unsigned bits) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const auto x : v) out.push_back(encode_signed(x, bits));
  return out;
}

std::vector<std::uint64_t> magnitudes(const std::vector<std::int64_t>& v, unsigned bits) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const auto x : v) {
    BPIM_REQUIRE(fits_signed(x, bits), "value out of signed range");
    out.push_back(static_cast<std::uint64_t>(std::llabs(x)));
  }
  return out;
}

std::vector<std::int64_t> apply_signs(const std::vector<std::uint64_t>& mags,
                                      const std::vector<std::int64_t>& a,
                                      const std::vector<std::int64_t>& b) {
  std::vector<std::int64_t> out;
  out.reserve(mags.size());
  for (std::size_t i = 0; i < mags.size(); ++i) {
    const bool neg = (a[i] < 0) != (b[i] < 0);
    out.push_back(neg ? -static_cast<std::int64_t>(mags[i])
                      : static_cast<std::int64_t>(mags[i]));
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> SignedVectorOps::add(const std::vector<std::int64_t>& a,
                                               const std::vector<std::int64_t>& b) {
  batch_runs_.clear();
  const auto codes = engine_.add(encode_all(a, bits_), encode_all(b, bits_));
  std::vector<std::int64_t> out;
  out.reserve(codes.size());
  for (const auto c : codes) out.push_back(decode_signed(c, bits_));
  return out;
}

std::vector<std::int64_t> SignedVectorOps::sub(const std::vector<std::int64_t>& a,
                                               const std::vector<std::int64_t>& b) {
  batch_runs_.clear();
  const auto codes = engine_.sub(encode_all(a, bits_), encode_all(b, bits_));
  std::vector<std::int64_t> out;
  out.reserve(codes.size());
  for (const auto c : codes) out.push_back(decode_signed(c, bits_));
  return out;
}

std::vector<std::int64_t> SignedVectorOps::mult(const std::vector<std::int64_t>& a,
                                                const std::vector<std::int64_t>& b) {
  BPIM_REQUIRE(a.size() == b.size(), "operand vectors must have equal length");
  batch_runs_.clear();
  // In-memory magnitudes (the heavy work); host-side sign bookkeeping.
  const auto mags = engine_.mult(magnitudes(a, bits_), magnitudes(b, bits_));
  return apply_signs(mags, a, b);
}

engine::ResidentOperand SignedVectorOps::pin_mult_magnitudes(
    const std::vector<std::int64_t>& b, std::optional<std::uint64_t> colocate_key) {
  return engine_.pin_operand(magnitudes(b, bits_), engine::OperandLayout::MultUnit,
                             colocate_key);
}

bool SignedVectorOps::unpin(const engine::ResidentOperand& handle) {
  return engine_.unpin(handle);
}

std::vector<std::vector<std::int64_t>> SignedVectorOps::mult_forward_resident(
    const std::vector<std::int64_t>& a,
    const std::vector<engine::ResidentOperand>& b_handles,
    const std::vector<bool>& b_negative) {
  BPIM_REQUIRE(b_handles.size() == b_negative.size(),
               "handle and sign lists must have equal length");
  const std::vector<engine::OpResult> results =
      engine_.run_forward(b_handles, magnitudes(a, bits_));
  batch_runs_.clear();
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(results.size());
  for (std::size_t k = 0; k < results.size(); ++k)
    out.push_back(signed_product(results[k], a, b_negative[k]));
  return out;
}

std::vector<std::int64_t> SignedVectorOps::signed_product(const engine::OpResult& result,
                                                          const std::vector<std::int64_t>& a,
                                                          bool b_negative) {
  batch_runs_.push_back(result.stats);
  std::vector<std::int64_t> out;
  out.reserve(result.values.size());
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    const auto mag = static_cast<std::int64_t>(result.values[i]);
    out.push_back((a[i] < 0) != b_negative ? -mag : mag);
  }
  return out;
}

std::vector<std::vector<std::int64_t>> SignedVectorOps::mult_batch(
    const std::vector<std::vector<std::int64_t>>& as,
    const std::vector<std::vector<std::int64_t>>& bs) {
  BPIM_REQUIRE(as.size() == bs.size(), "batch operand lists must have equal length");
  // Magnitude storage must outlive the engine call (ops borrow spans).
  std::vector<std::vector<std::uint64_t>> ma, mb;
  ma.reserve(as.size());
  mb.reserve(bs.size());
  std::vector<std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>> pairs;
  pairs.reserve(as.size());
  for (std::size_t k = 0; k < as.size(); ++k) {
    BPIM_REQUIRE(as[k].size() == bs[k].size(), "operand vectors must have equal length");
    ma.push_back(magnitudes(as[k], bits_));
    mb.push_back(magnitudes(bs[k], bits_));
    pairs.emplace_back(ma.back(), mb.back());
  }
  const auto results = engine_.mult_batch(pairs);

  batch_runs_.clear();
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(results.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    batch_runs_.push_back(results[k].stats);
    out.push_back(apply_signs(results[k].values, as[k], bs[k]));
  }
  return out;
}

}  // namespace bpim::app
