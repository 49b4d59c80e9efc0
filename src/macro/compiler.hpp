#pragma once
// Fusion compiler: turns a whole forward pass into one verified macro ISA
// program per macro, so the forward executes in-array as back-to-back
// MULTs on the chained datapath. This is the IMAC organization applied to
// the seed's row-level ISA: the multi-bit MAC is the primitive, and the
// verifier (macro/verifier.hpp) is the contract every emitted program is
// checked against before it ever reaches a macro.
//
// One entry point, compile_relocatable_forward, emits a forward shape's
// program: one MULT per (activation row, weight row) pair, layer-major, so
// back-to-back MULTs of one staged activation row run on the chained
// datapath (FF load overlapped, D1 staging skipped) -- where the fused cycle
// win comes from. Every weight's rows are relative to a base pair the caller
// rebinds per call (RelocatableForward), so a weight that moved costs no
// compile. CostModel::program_cost(p) prices it as the controller runs it.
//
// A MULT writes only the D1/D2 scratch rows, so emitted programs read
// pinned weight rows in place and never write a main row. Both compilers
// seal through VerifiedProgram::verify: a program that draws any verifier
// diagnostic is rejected with the annotated disassembly.
// Nothing here depends on the engine layer; the engine hands in the
// geometry and gets VerifiedPrograms back, which MacroController runs
// without verifying them again.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/sram_array.hpp"
#include "common/thread_annotations.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {

/// A verified whole-forward MAC program whose weight rows relocate. MAC
/// (l, j) of a J-weight forward -- instruction l * J + j -- multiplies the
/// activation in row 2l by weight j's row 2(base_j + l), so one program
/// serves every placement of a forward of that shape. The program writes
/// only the D2 accumulator, never a main row, so of all the verifier checks
/// only two involve a weight row: it is in range, and it is not the
/// activation row it is multiplied with. The compiler verifies the program
/// once in full; bind() moves the weights under exactly those two checks,
/// per instruction. Not thread-safe: a binding belongs to its caller's run.
class RelocatableForward {
 public:
  /// Point weight j at row pair `bases[j]` and return the program: O(size),
  /// and O(weights) when the binding is unchanged. Throws
  /// std::invalid_argument, leaving the program as it was, when a weight
  /// row would leave the array or land on its activation row.
  const VerifiedProgram& bind(std::span<const std::size_t> bases);

  [[nodiscard]] const VerifiedProgram& program() const { return program_; }
  [[nodiscard]] std::span<const std::size_t> bases() const { return bases_; }

 private:
  friend class FusionCompiler;
  RelocatableForward(VerifiedProgram p, std::vector<std::size_t> bases)
      : program_(std::move(p)), bases_(std::move(bases)) {}

  VerifiedProgram program_;
  std::vector<std::size_t> bases_;  ///< the current binding, one per weight
};

class FusionCompiler {
 public:
  explicit FusionCompiler(array::ArrayGeometry g) : geom_(g) {}

  /// Emit and verify the MAC-forward program of `weights` weights over
  /// `layers` chunks at `bits`, bound to weights stacked above the
  /// activation (weight j at pair (j + 1) * layers); rebind it with
  /// RelocatableForward::bind. Throws std::invalid_argument (with annotated
  /// disassembly) if the program draws any verifier diagnostic -- an
  /// unsupported precision, or a stack that does not fit the array.
  [[nodiscard]] RelocatableForward compile_relocatable_forward(unsigned bits,
                                                               std::size_t weights,
                                                               std::size_t layers) const;

  [[nodiscard]] const array::ArrayGeometry& geometry() const { return geom_; }

 private:
  array::ArrayGeometry geom_;
};

/// Single-op compiler: the FusionCompiler's sibling for everything that is
/// not a fused forward. Each entry point emits the one-instruction Program
/// for a VecOp-shaped request (ADD, SUB, MULT, ADD-Shift, unary, logic)
/// against the array geometry, seals it through VerifiedProgram::verify
/// (like the fusion path), and caches it by (op, fn, bits, rows, dest) so
/// hot-path dispatch is one hash lookup.
///
/// Returned references stay valid for the compiler's lifetime: entries are
/// never evicted.
///
/// Thread-safe: the engine compiles on the submitting thread, but a serving
/// deployment may share one compiler across engines. Cache traffic feeds the
/// macro.programs.compiled / macro.programs.cache_hits counters and compile
/// instants on the trace timeline.
class OpCompiler {
 public:
  explicit OpCompiler(array::ArrayGeometry g) : geom_(g) {}

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
  std::unordered_map<Key, VerifiedProgram, KeyHash> cache_ BPIM_GUARDED_BY(mutex_);
  CacheStats stats_ BPIM_GUARDED_BY(mutex_);
};

}  // namespace bpim::macro
