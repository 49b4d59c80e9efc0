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
// programs' weight rows and compiles nothing. Each shape also caches one
// dispatch plan per element count it runs -- every macro's retire records,
// writing into one product slab and checked once -- built on the first
// forward of that count and never rebuilt, so forwards that alternate counts
// under one shape build and check nothing either. FusionStats counts how
// often the path compiled, ran fused, or fell back to op-at-a-time dispatch.

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "macro/compiler.hpp"
#include "macro/program.hpp"

namespace bpim::engine {

/// Counters of the engine's fusion path (ExecutionEngine::fusion_stats()).
struct FusionStats {
  std::uint64_t compiles = 0;  ///< forward shapes compiled (once per shape)
  /// Always 0: a moved weight rebinds its program instead. Kept because
  /// perfbench reports it by name (engine.recompiles_per_req).
  std::uint64_t recompiles = 0;
  std::uint64_t fused_runs = 0;  ///< forwards served by a fused program
  std::uint64_t fallback_runs = 0;  ///< forwards routed to op-at-a-time
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

/// The dispatch plan of one element count under a shape: an op-major
/// product slab (op j's element i is slab[j * elements + i]) and, per
/// active macro, one retire record per instruction of its program, record
/// l * J + j retiring layer l of op j into the slab, checked against the
/// program as the plan is built. Every forward of that count overwrites the
/// whole slab, and the controller rewrites every record's ledger fields as
/// it retires, so a forward that throws mid-dispatch leaves the plan valid.
struct ForwardPlan {
  std::vector<std::uint64_t> slab;
  std::vector<macro::CheckedRecords> records;
};

/// One cached whole-forward compilation, shared by every forward of its
/// ForwardShape whatever rows its weights occupy (each call rebinds them),
/// with one dispatch plan per element count the shape has run.
struct FusedForward {
  /// One per per-macro layer count, not one per macro: [0] for the macros
  /// holding L = ceil(C/M) of the C chunks, [1] -- present only when
  /// short_tail (M does not divide C and C > M) -- for those holding L - 1.
  std::vector<macro::RelocatableForward> programs;
  /// Keyed by elements per op, built on the first forward of that count
  /// and kept: map nodes do not move, so the records' spans stay valid.
  std::map<std::size_t, ForwardPlan> plans;
};

}  // namespace bpim::engine
