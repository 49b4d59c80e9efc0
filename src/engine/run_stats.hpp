#pragma once
// Run-level accounting shared by the ExecutionEngine and the app layer.
//
// RunStats describes one vector operation in modelled-silicon terms:
// elapsed_cycles is the lock-step maximum across macros (all macros of a
// layer fire together), energy is the sum over every macro's ledger. Both
// are merged deterministically after the parallel workers join, so the
// numbers are bit-identical to a serial execution at any thread count.

#include <cstdint>

#include "common/units.hpp"

namespace bpim::engine {

struct RunStats {
  std::uint64_t elements = 0;
  /// Macro ISA instructions executed across all macros -- every op runs as
  /// verified programs, and this counts the instruction stream the cycle and
  /// energy figures below are priced from.
  std::uint64_t instructions = 0;
  std::uint64_t elapsed_cycles = 0;  ///< lock-step across macros (max)
  Joule energy{0.0};
  Second elapsed_time{0.0};
  /// Operand-load account of this op (informational: elapsed_cycles stays
  /// compute-only, the seed semantics). A fully-transient op pays 2 row
  /// writes per layer; a resident side costs nothing after its one
  /// materializing write, and the difference is load_cycles_saved.
  std::uint64_t load_cycles = 0;
  std::uint64_t load_cycles_saved = 0;
  /// Compute cycles the fused (chained-MAC) execution path saved vs issuing
  /// each op through Table 1 alone; elapsed_cycles is already net of this.
  std::uint64_t fused_cycles_saved = 0;
  /// Lock-step cycles the adaptive policy (MULT narrowing / zero skipping)
  /// took off this op's makespan: the elapsed_cycles a policy-off run of
  /// the same instruction stream would have added back. Exact conservation
  /// on unfused runs: dense elapsed == elapsed_cycles + adaptive_cycles_saved.
  std::uint64_t adaptive_cycles_saved = 0;

  [[nodiscard]] double cycles_per_element() const {
    return elements == 0 ? 0.0
                         : static_cast<double>(elapsed_cycles) / static_cast<double>(elements);
  }
  [[nodiscard]] Joule energy_per_element() const {
    return elements == 0 ? Joule(0.0) : Joule(energy.si() / static_cast<double>(elements));
  }

  /// Field-wise sum: the account of running `o` after this op, with no
  /// load overlap (the pipelined view is BatchStats').
  RunStats& operator+=(const RunStats& o) {
    elements += o.elements;
    instructions += o.instructions;
    elapsed_cycles += o.elapsed_cycles;
    energy += o.energy;
    elapsed_time += o.elapsed_time;
    load_cycles += o.load_cycles;
    load_cycles_saved += o.load_cycles_saved;
    fused_cycles_saved += o.fused_cycles_saved;
    adaptive_cycles_saved += o.adaptive_cycles_saved;
    return *this;
  }
};

/// Accounting for a run_batch() call. Per-op RunStats stay compute-only (the
/// seed semantics); the batch view adds the operand-load traffic and models
/// the double-buffered schedule where the load of batch k+1 overlaps the
/// compute of batch k on ping-pong row pairs.
struct BatchStats {
  std::size_t ops = 0;
  std::uint64_t elements = 0;
  std::uint64_t instructions = 0;  ///< macro ISA instructions, all macros
  std::uint64_t load_cycles = 0;       ///< total operand-load (row write) cycles
  /// Load cycles the batch avoided because ops referenced resident
  /// operands (engine/residency.hpp) instead of re-poking them.
  std::uint64_t load_cycles_saved = 0;
  std::uint64_t compute_cycles = 0;    ///< total in-array compute cycles
  std::uint64_t serial_cycles = 0;     ///< load + compute with no overlap
  std::uint64_t pipelined_cycles = 0;  ///< double-buffered: load(k+1) || compute(k)
  /// Compute cycles fused program execution saved vs op-at-a-time Table 1
  /// issue (0 for unfused batches; compute_cycles is net of this).
  std::uint64_t fused_cycles_saved = 0;
  /// Makespan cycles the adaptive policy saved across the batch
  /// (compute_cycles is net of this; 0 when the policy is off).
  std::uint64_t adaptive_cycles_saved = 0;
  Joule energy{0.0};
  Second elapsed_time{0.0};  ///< pipelined_cycles at the macro cycle time

  [[nodiscard]] double overlap_speedup() const {
    return pipelined_cycles == 0 ? 1.0
                                 : static_cast<double>(serial_cycles) /
                                       static_cast<double>(pipelined_cycles);
  }

  /// Serial concatenation: the account of running this batch after `o` on
  /// the same memory. Parallel composition across memories is NOT a sum --
  /// the serving ledger keeps per-memory totals and takes their max as the
  /// scale-out makespan instead.
  BatchStats& operator+=(const BatchStats& o) {
    ops += o.ops;
    elements += o.elements;
    instructions += o.instructions;
    load_cycles += o.load_cycles;
    load_cycles_saved += o.load_cycles_saved;
    compute_cycles += o.compute_cycles;
    serial_cycles += o.serial_cycles;
    pipelined_cycles += o.pipelined_cycles;
    fused_cycles_saved += o.fused_cycles_saved;
    adaptive_cycles_saved += o.adaptive_cycles_saved;
    energy += o.energy;
    elapsed_time += o.elapsed_time;
    return *this;
  }
};

}  // namespace bpim::engine
