#pragma once
// Signed arithmetic on top of the unsigned in-memory datapath.
//
// The macro's ADD/SUB are two's-complement-exact at word width, so signed
// add/sub only need encode/decode. MULT is unsigned hardware (Fig 5), so
// signed multiplies run sign-magnitude: the memory multiplies |a|*|b| (the
// bandwidth-heavy part) and the host applies the sign -- the same
// memory/host split the paper's macro implies for ML inference with signed
// weights.

#include <cstdint>
#include <optional>
#include <vector>

#include "app/vector_engine.hpp"

namespace bpim::app {

/// Two's-complement encode into an unsigned `bits`-wide code.
[[nodiscard]] std::uint64_t encode_signed(std::int64_t v, unsigned bits);
/// Two's-complement decode of a `bits`-wide code.
[[nodiscard]] std::int64_t decode_signed(std::uint64_t code, unsigned bits);

/// Valid signed range of a `bits`-wide word: [-2^(bits-1), 2^(bits-1)-1].
[[nodiscard]] bool fits_signed(std::int64_t v, unsigned bits);

/// Element-wise signed operations executed on the IMC memory.
class SignedVectorOps {
 public:
  SignedVectorOps(macro::ImcMemory& mem, unsigned bits) : engine_(mem, bits), bits_(bits) {}
  /// Routes every op through `exec` (see VectorEngine).
  SignedVectorOps(engine::Executor& exec, unsigned bits) : engine_(exec, bits), bits_(bits) {}

  [[nodiscard]] std::vector<std::int64_t> add(const std::vector<std::int64_t>& a,
                                              const std::vector<std::int64_t>& b);
  [[nodiscard]] std::vector<std::int64_t> sub(const std::vector<std::int64_t>& a,
                                              const std::vector<std::int64_t>& b);
  /// Sign-magnitude multiply: in-memory unsigned |a|*|b|, host-applied sign.
  [[nodiscard]] std::vector<std::int64_t> mult(const std::vector<std::int64_t>& a,
                                               const std::vector<std::int64_t>& b);

  /// Batched sign-magnitude multiply: pairs (as[k], bs[k]) run as one
  /// double-buffered engine batch. Per-pair stats via last_batch_runs();
  /// overlap accounting via the executor's private_batch().
  [[nodiscard]] std::vector<std::vector<std::int64_t>> mult_batch(
      const std::vector<std::vector<std::int64_t>>& as,
      const std::vector<std::vector<std::int64_t>>& bs);

  // ---- persistent operand residency ---------------------------------------
  /// Pin |b| resident as a MULT operand (engine/residency.hpp): the
  /// magnitude rows stay in the array and mult_forward_resident()
  /// references them by handle. The sign is the caller's to re-apply -- pass
  /// b_negative below. `colocate_key` as in VectorEngine::pin_operand.
  [[nodiscard]] engine::ResidentOperand pin_mult_magnitudes(
      const std::vector<std::int64_t>& b,
      std::optional<std::uint64_t> colocate_key = std::nullopt);
  bool unpin(const engine::ResidentOperand& handle);

  /// Fused sign-magnitude forward: |a| is staged once and multiplied against
  /// every resident magnitude handle in one compiled macro program
  /// (VectorEngine::run_forward). out[k][i] = sign * (|a[i]| * |b_k[i]|)
  /// with the sign from a[i] and b_negative[k] -- the per-handle products a
  /// caller with broadcast constants (FIR taps) reassembles at any delay.
  /// Bit-identical to mult(a, b_k) for the signed operand b_k that handle
  /// k pins.
  [[nodiscard]] std::vector<std::vector<std::int64_t>> mult_forward_resident(
      const std::vector<std::int64_t>& a,
      const std::vector<engine::ResidentOperand>& b_handles,
      const std::vector<bool>& b_negative);

  [[nodiscard]] const RunStats& last_run() const { return engine_.last_run(); }
  [[nodiscard]] const std::vector<RunStats>& last_batch_runs() const { return batch_runs_; }

 private:
  /// One resident op's magnitudes signed by a[i] XOR b_negative; records
  /// the op's stats in last_batch_runs().
  std::vector<std::int64_t> signed_product(const engine::OpResult& result,
                                           const std::vector<std::int64_t>& a,
                                           bool b_negative);

  VectorEngine engine_;
  unsigned bits_;
  std::vector<RunStats> batch_runs_;
};

}  // namespace bpim::app
