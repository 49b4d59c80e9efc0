#pragma once
// FIR filtering on the IMC memory -- the real-time streaming-DSP workload
// class the paper's introduction cites alongside deep learning.
//
//   y[n] = sum_k h[k] * x[n-k]
//
// Each tap k is one vectorised in-memory multiply of the (shifted) input
// stream against the broadcast tap coefficient; the host accumulates the
// per-tap partial products. Taps and samples are signed (sign-magnitude
// multiplies, see signed_ops).

#include <cstdint>
#include <vector>

#include "app/nn.hpp"
#include "app/signed_ops.hpp"

namespace bpim::app {

/// Per-apply account: the LayerStats fields, per tap instead of per neuron
/// (cycles sum the per-tap compute; pipelined_cycles overlaps tap k+1's
/// operand load with tap k's compute).
using FirStats = LayerStats;

/// Streaming FIR over the IMC memory. Constructed with an executor (engine
/// or server) plus a block length, the filter pins each non-zero tap's
/// broadcast magnitude rows resident (engine/residency.hpp): apply() calls
/// on blocks of that length reference the handles instead of re-poking the
/// same tap rows every block -- the steady-state shape of a streaming
/// filter. A pinned filter's apply is also *fused*: because each pinned
/// tap row is a broadcast constant, the block's |x| is staged once and
/// multiplied against every tap row by one compiled macro program
/// (engine::ExecutionEngine::run_forward); the host assembles the tap
/// delays from the undelayed product streams. Outputs are bit-identical to
/// the op-at-a-time path; only the cycle account improves
/// (FirStats::fused_cycles_saved). Other block lengths (or other
/// executors) transparently fall back to the re-poke path with identical
/// results. Pinning makes the filter move-only; destroy it before the
/// executor it pinned on.
class FirFilter {
 public:
  /// `taps` are signed integer coefficients fitting `bits` (two's complement).
  FirFilter(std::vector<std::int64_t> taps, unsigned bits);
  /// Pin the tap rows resident on `exec` for blocks of `block_len` samples.
  FirFilter(std::vector<std::int64_t> taps, unsigned bits, engine::Executor& exec,
            std::size_t block_len);

  [[nodiscard]] std::size_t order() const { return taps_.size(); }
  [[nodiscard]] unsigned bits() const { return bits_; }
  [[nodiscard]] bool pinned() const { return !tap_handles_.handles().empty(); }
  /// Block length the tap rows were pinned for (0 when not pinned).
  [[nodiscard]] std::size_t block_len() const { return block_len_; }

  /// Filters `x` (values must fit `bits` signed); returns y of equal length
  /// (zero-padded history). All multiplies run in-memory: every non-zero
  /// tap is one op of a single double-buffered ExecutionEngine batch.
  [[nodiscard]] std::vector<std::int64_t> apply(macro::ImcMemory& mem,
                                                const std::vector<std::int64_t>& x);
  /// Same, on a shared executor (an engine reuses its thread pool across
  /// calls); uses the resident tap rows when pinned on `exec` and x is one
  /// block.
  [[nodiscard]] std::vector<std::int64_t> apply(engine::Executor& exec,
                                                const std::vector<std::int64_t>& x);

  /// Host-only reference implementation.
  [[nodiscard]] std::vector<std::int64_t> apply_reference(
      const std::vector<std::int64_t>& x) const;

  [[nodiscard]] const FirStats& last_stats() const { return stats_; }

 private:
  std::vector<std::int64_t> taps_;
  unsigned bits_;
  FirStats stats_{};
  /// One handle per non-zero tap, in tap order, when pinned.
  PinnedHandles tap_handles_;
  std::size_t block_len_ = 0;
};

}  // namespace bpim::app
