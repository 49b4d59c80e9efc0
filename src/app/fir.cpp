#include "app/fir.hpp"

#include <utility>

#include "common/require.hpp"

namespace bpim::app {

FirFilter::FirFilter(std::vector<std::int64_t> taps, unsigned bits)
    : taps_(std::move(taps)), bits_(bits) {
  BPIM_REQUIRE(!taps_.empty(), "filter needs at least one tap");
  BPIM_REQUIRE(bits >= 2 && bits <= 63, "signed width out of range");
  for (const auto t : taps_)
    BPIM_REQUIRE(fits_signed(t, bits), "tap out of signed range for the precision");
}

FirFilter::FirFilter(std::vector<std::int64_t> taps, unsigned bits, engine::Executor& exec,
                     std::size_t block_len)
    : FirFilter(std::move(taps), bits) {
  BPIM_REQUIRE(block_len > 0, "FIR block length must be positive");
  block_len_ = block_len;
  // One colocate key per filter so a multi-memory server homes every tap
  // row together -- the fused apply needs them on one memory.
  std::uint64_t key = 1469598103934665603ull;
  const auto mix = [&key](std::uint64_t v) {
    key ^= v;
    key *= 1099511628211ull;
  };
  mix(bits_);
  mix(block_len);
  for (const auto t : taps_) mix(static_cast<std::uint64_t>(t));
  SignedVectorOps ops(exec, bits_);
  tap_handles_ = PinnedHandles(exec);
  for (const auto t : taps_) {
    if (t == 0) continue;  // zero taps never reach the memory
    tap_handles_.push_back(
        ops.pin_mult_magnitudes(std::vector<std::int64_t>(block_len, t), key));
  }
}

std::vector<std::int64_t> FirFilter::apply(macro::ImcMemory& mem,
                                           const std::vector<std::int64_t>& x) {
  engine::ExecutionEngine eng(mem);
  return apply(eng, x);
}

std::vector<std::int64_t> FirFilter::apply(engine::Executor& exec,
                                           const std::vector<std::int64_t>& x) {
  stats_ = FirStats{};
  std::vector<std::int64_t> y(x.size(), 0);

  std::vector<std::size_t> delays;  // tap index of each non-zero tap, in order
  std::vector<bool> negative;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    if (taps_[k] == 0) continue;
    delays.push_back(k);
    negative.push_back(taps_[k] < 0);
  }
  if (delays.empty()) return y;

  SignedVectorOps ops(exec, bits_);
  if (tap_handles_.on(exec) && x.size() == block_len_) {
    // Fused: each pinned tap row is a broadcast constant, so the undelayed
    // block |x| staged once against every tap row gives the complete
    // product streams p[k][n] = x[n] * taps[k]; the delay is pure host
    // reindexing (y[n] += p[k][n-k]). One compiled macro program, same
    // products the delayed op-at-a-time path computes.
    const auto partials = ops.mult_forward_resident(x, tap_handles_.handles(), negative);
    for (std::size_t k = 0; k < partials.size(); ++k) {
      const std::size_t d = delays[k];
      for (std::size_t n = d; n < x.size(); ++n) y[n] += partials[k][n - d];
    }
  } else {
    // Unpinned: each non-zero tap multiplies the stream delayed by k against
    // the broadcast tap; all taps go down as one double-buffered engine
    // batch.
    std::vector<std::vector<std::int64_t>> delayed_streams, tap_vectors;
    for (const std::size_t k : delays) {
      std::vector<std::int64_t> delayed(x.size(), 0);
      for (std::size_t n = k; n < x.size(); ++n) delayed[n] = x[n - k];
      delayed_streams.push_back(std::move(delayed));
      tap_vectors.emplace_back(x.size(), taps_[k]);
    }
    const auto partials = ops.mult_batch(delayed_streams, tap_vectors);
    for (std::size_t k = 0; k < partials.size(); ++k)
      for (std::size_t n = 0; n < x.size(); ++n) y[n] += partials[k][n];
  }
  for (const RunStats& run : ops.last_batch_runs()) stats_.add_op(run, x.size());
  if (const engine::BatchStats* b = exec.private_batch())
    stats_.pipelined_cycles = b->pipelined_cycles;
  return y;
}

std::vector<std::int64_t> FirFilter::apply_reference(const std::vector<std::int64_t>& x) const {
  std::vector<std::int64_t> y(x.size(), 0);
  for (std::size_t n = 0; n < x.size(); ++n)
    for (std::size_t k = 0; k <= n && k < taps_.size(); ++k) y[n] += taps_[k] * x[n - k];
  return y;
}

}  // namespace bpim::app
