#pragma once
// Fusion compiler: turns dependent op chains into single verified macro ISA
// programs, so a whole forward pass executes in-array -- intermediates live
// in the dummy accumulator row (D2), never leaving the subarray. This is
// the IMAC organization applied to the seed's row-level ISA: the multi-bit
// MAC is the primitive, and the verifier (macro/verifier.hpp) is the
// contract every emitted program is checked against before it ever reaches
// a macro.
//
// Two program shapes are emitted:
//
//   compile_mac_forward  One MULT per (activation row, weight row) pair.
//                        The per-MAC products are captured from the
//                        execution trace; back-to-back MULTs of one staged
//                        activation row run on the chained datapath (FF load
//                        overlapped, D1 staging skipped), which is where the
//                        fused cycle win comes from.
//
//   compile_chain        MULT -> ADD(-> ADD-Shift) dependency chains: the
//                        head product stays in D2 and each link folds a
//                        2N-bit operand row into it. The final link drives
//                        the result out (ADD) or retires it into the layer's
//                        own dead activation row (ADD-Shift needs a dest).
//
// The compiler knows the residency map: programs are verified against the
// pinned intervals (DiagKind::ResidentClobber) and must come back with ZERO
// diagnostics -- warnings included -- or compilation throws with the
// annotated disassembly. Nothing here depends on the engine layer; the
// engine hands in geometry + pinned intervals and gets VerifiedPrograms
// back, which MacroController runs without verifying them again.

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/sram_array.hpp"
#include "common/thread_annotations.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {

/// One MAC of a fused forward: MULT of two staged main rows, product in D2.
struct MacStep {
  std::size_t a_row = 0;  ///< multiplicand row (the shared activation)
  std::size_t b_row = 0;  ///< multiplier row (typically a resident weight)
};

/// A whole forward at one precision: the per-macro MAC sequence, in issue
/// order. Steps sharing `a_row` should be adjacent -- the chained datapath
/// only discounts back-to-back repeats.
struct MacForwardSpec {
  unsigned bits = 8;
  std::vector<MacStep> steps;
};

/// How one chain link folds its operand into the D2 accumulator.
enum class ChainLinkKind {
  Add,       ///< acc += operand
  AddShift,  ///< acc = (acc + operand) << 1 (in-field)
};

/// One MULT->links chain: the head MAC plus the rows folded into it. Link
/// operands are 2N-bit fields (the product width).
struct ChainLayerSpec {
  std::size_t a_row = 0;
  std::size_t b_row = 0;
  std::vector<std::pair<ChainLinkKind, std::size_t>> links;
};

struct ChainSpec {
  unsigned bits = 8;  ///< head MULT precision; links run at 2*bits
  std::vector<ChainLayerSpec> layers;
};

class FusionCompiler {
 public:
  /// `pinned` is the residency map of the target macro's main rows; emitted
  /// programs may read pinned rows (that is the point) but never write them.
  explicit FusionCompiler(array::ArrayGeometry g, std::vector<PinnedRows> pinned = {})
      : geom_(g), pinned_(std::move(pinned)) {}

  /// Emit and verify the fused whole-forward MAC program. Throws
  /// std::invalid_argument (with annotated disassembly) if the emitted
  /// program draws any verifier diagnostic.
  [[nodiscard]] VerifiedProgram compile_mac_forward(const MacForwardSpec& spec) const;

  /// Emit and verify a MULT->ADD(->ADD-Shift) chain program. The last link
  /// of an ADD chain carries no dest (result driven out and captured from
  /// the trace); a final ADD-Shift retires into the layer's own `a_row`,
  /// dead since the head MULT consumed it.
  [[nodiscard]] VerifiedProgram compile_chain(const ChainSpec& spec) const;

  /// Cycle cost of `p` on the chained-MAC execution path -- Table 1 minus
  /// the discounts MacroController::run applies with fuse_mac_chains set.
  [[nodiscard]] static std::uint64_t fused_static_cycles(const Program& p);

  [[nodiscard]] const array::ArrayGeometry& geometry() const { return geom_; }
  [[nodiscard]] const std::vector<PinnedRows>& pinned() const { return pinned_; }

 private:
  /// Verify an emitted program to zero diagnostics and seal it.
  [[nodiscard]] VerifiedProgram seal(Program p, const char* what) const;

  array::ArrayGeometry geom_;
  std::vector<PinnedRows> pinned_;
};

/// Single-op compiler: the FusionCompiler's sibling for everything that is
/// not a fused chain. Each entry point emits the one-instruction Program for
/// a VecOp-shaped request (ADD, SUB, MULT, ADD-Shift, unary, logic) against
/// the array geometry + residency map, verifies it to zero diagnostics
/// (warnings included, like the fusion path), and caches it by
/// (op, fn, bits, rows, dest) so hot-path dispatch is one hash lookup.
///
/// Returned references stay valid for the compiler's lifetime (entries are
/// never evicted); set_pinned() is the one invalidation point -- it clears
/// the cache and must not race executions of previously returned programs,
/// the same contract the fusion path has at recompile.
///
/// Thread-safe: the engine compiles on the submitting thread, but a serving
/// deployment may share one compiler across engines. Cache traffic feeds the
/// macro.programs.compiled / macro.programs.cache_hits counters and compile
/// instants on the trace timeline.
class OpCompiler {
 public:
  explicit OpCompiler(array::ArrayGeometry g, std::vector<PinnedRows> pinned = {})
      : geom_(g), pinned_(std::move(pinned)) {}

  const VerifiedProgram& add(array::RowRef a, array::RowRef b, unsigned bits)
      BPIM_EXCLUDES(mutex_);
  const VerifiedProgram& sub(array::RowRef a, array::RowRef b, unsigned bits)
      BPIM_EXCLUDES(mutex_);
  const VerifiedProgram& mult(array::RowRef a, array::RowRef b, unsigned bits)
      BPIM_EXCLUDES(mutex_);
  const VerifiedProgram& add_shift(array::RowRef a, array::RowRef b, unsigned bits,
                                   array::RowRef dest) BPIM_EXCLUDES(mutex_);
  const VerifiedProgram& unary(Op op, array::RowRef src, array::RowRef dest, unsigned bits)
      BPIM_EXCLUDES(mutex_);
  const VerifiedProgram& logic(periph::LogicFn fn, array::RowRef a, array::RowRef b)
      BPIM_EXCLUDES(mutex_);

  /// Generic entry: build/fetch the verified single-instruction program for
  /// `inst`. Throws std::invalid_argument (with annotated disassembly) when
  /// the instruction draws any verifier diagnostic.
  const VerifiedProgram& single(const Instruction& inst) BPIM_EXCLUDES(mutex_);

  /// Replace the residency map. Clears the cache (programs verified against
  /// the old map are stale); must not race executions.
  void set_pinned(std::vector<PinnedRows> pinned) BPIM_EXCLUDES(mutex_);

  struct CacheStats {
    std::uint64_t compiled = 0;  ///< cache misses: programs emitted + verified
    std::uint64_t hits = 0;      ///< programs served from the cache
  };
  [[nodiscard]] CacheStats cache_stats() const BPIM_EXCLUDES(mutex_);

  [[nodiscard]] const array::ArrayGeometry& geometry() const { return geom_; }

 private:
  /// Cache key: the instruction's identity, rows encoded as dummy-bit+index.
  struct Key {
    std::uint8_t op = 0;
    std::uint8_t fn = 0;
    std::uint32_t bits = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t dest = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  array::ArrayGeometry geom_;
  mutable Mutex mutex_;
  std::vector<PinnedRows> pinned_ BPIM_GUARDED_BY(mutex_);
  std::unordered_map<Key, VerifiedProgram, KeyHash> cache_ BPIM_GUARDED_BY(mutex_);
  CacheStats stats_ BPIM_GUARDED_BY(mutex_);
};

}  // namespace bpim::macro
