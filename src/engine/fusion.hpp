#pragma once
// Engine-facing types of the fusion path (the compiler itself lives in
// macro/compiler.hpp and knows nothing of the engine layer).
//
// run_forward() executes a whole-forward MAC program: J resident weight
// handles against one shared activation, each macro running a single
// VerifiedProgram whose back-to-back MULTs run on the chained datapath.
// run_chain() executes one MULT->ADD(->ADD-Shift) dependency chain without
// spilling the intermediate product. FusionStats counts how often each path
// compiled, recompiled (after eviction moved a weight), ran fused, or fell
// back to op-at-a-time dispatch.

#include <cstdint>
#include <span>
#include <utility>
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
  std::uint64_t compiles = 0;    ///< fused-forward programs built
  std::uint64_t recompiles = 0;  ///< rebuilt after eviction moved a weight
  std::uint64_t fused_runs = 0;  ///< forwards served by a fused program
  std::uint64_t fallback_runs = 0;  ///< forwards routed to op-at-a-time
  std::uint64_t chain_runs = 0;     ///< fused chains executed
};

/// One cached whole-forward compilation: the programs plus the residency
/// snapshot they were emitted against (a weight that has moved since --
/// eviction and re-materialization -- invalidates the cache). A handle id
/// fixes its precision and shape, so the placements say it all.
struct FusedForward {
  /// (weight handle id, base pair at compile time), op order.
  std::vector<std::pair<std::uint64_t, std::size_t>> placements;
  /// One per per-macro layer count, not one per macro: [0] for the macros
  /// holding ceil(C/M) of the C chunks, [1] -- present only when M does not
  /// divide C and C > M -- for those holding floor(C/M).
  std::vector<macro::VerifiedProgram> programs;
};

}  // namespace bpim::engine
