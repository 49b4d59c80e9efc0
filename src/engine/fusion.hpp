#pragma once
// Engine-facing types of the fusion path (the compiler itself lives in
// macro/compiler.hpp and knows nothing of the engine layer).
//
// run_forward() executes a whole-forward MAC program: J resident weight
// handles against one shared activation, each macro running a single
// VerifiedProgram whose back-to-back MULTs run on the chained datapath.
// The programs are keyed by the forward's shape, not by its weights, and
// relocate: a forward whose weights moved (eviction and re-materialization)
// or another tenant's forward of the same shape rebinds the cached
// programs' weight rows and compiles nothing. run_chain() executes one
// MULT->ADD(->ADD-Shift) dependency chain without spilling the
// intermediate product. FusionStats counts how often each path compiled,
// ran fused, or fell back to op-at-a-time dispatch.

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "macro/compiler.hpp"

namespace bpim::engine {

using macro::ChainLinkKind;

/// One link of a fused chain: fold `values` -- 2N-bit fields aligned with
/// the head MULT's product units -- into the in-array accumulator.
struct ChainLink {
  ChainLinkKind kind = ChainLinkKind::Add;
  std::span<const std::uint64_t> values;
};

/// A MULT->links dependency chain over span operands. The head product
/// a[i]*b[i] stays in the array; each link folds its operand into it.
struct ChainRequest {
  unsigned bits = 8;  ///< head precision; links run at 2*bits
  std::span<const std::uint64_t> a;
  std::span<const std::uint64_t> b;
  std::vector<ChainLink> links;
};

/// Counters of the engine's fusion path (ExecutionEngine::fusion_stats()).
struct FusionStats {
  std::uint64_t compiles = 0;  ///< forward shapes compiled (once per shape)
  /// Always 0: a moved weight rebinds its program instead. Kept because
  /// perfbench reports it by name (engine.recompiles_per_req).
  std::uint64_t recompiles = 0;
  std::uint64_t fused_runs = 0;  ///< forwards served by a fused program
  std::uint64_t fallback_runs = 0;  ///< forwards routed to op-at-a-time
  std::uint64_t chain_runs = 0;     ///< fused chains executed
};

/// The shape a fused forward's programs depend on: precision, weight count
/// J, layers L per handle (the chunks the fullest macro holds), and whether
/// some macros hold one chunk fewer.
struct ForwardShape {
  unsigned bits = 0;
  std::size_t weights = 0;
  std::size_t layers = 0;
  bool short_tail = false;
  auto operator<=>(const ForwardShape&) const = default;
};

/// One cached whole-forward compilation, shared by every forward of its
/// ForwardShape whatever rows its weights occupy (each call rebinds them).
struct FusedForward {
  /// One per per-macro layer count, not one per macro: [0] for the macros
  /// holding L = ceil(C/M) of the C chunks, [1] -- present only when
  /// short_tail (M does not divide C and C > M) -- for those holding L - 1.
  std::vector<macro::RelocatableForward> programs;
};

}  // namespace bpim::engine
