#pragma once
// Quantised fully-connected layer on the IMC memory -- the machine-learning
// inference workload the paper's introduction motivates, and the showcase
// for reconfigurable bit-precision: the same hardware runs 2/4/8-bit
// weights, trading accuracy for energy (Fig 6's reconfiguration).
//
// y_j = act( sum_i W[j][i] * x[i] )
//
// Products are computed in-memory (bit-parallel MULT on 2N-bit units);
// accumulation of the 2N-bit partial products into a wide sum is done by
// the digital host (the standard macro/accelerator split: the memory
// supplies multiply bandwidth, the accumulator sits outside the array).

#include <cstdint>
#include <vector>

#include "app/vector_engine.hpp"

namespace bpim::app {

/// Uniform affine quantisation of a float vector to unsigned `bits` levels.
struct Quantized {
  std::vector<std::uint64_t> values;
  double scale = 1.0;  ///< real = scale * code
};

[[nodiscard]] Quantized quantize(const std::vector<double>& x, unsigned bits);

struct LayerStats {
  std::uint64_t macs = 0;
  std::uint64_t cycles = 0;  ///< sum of per-op compute cycles (no load overlap)
  /// Double-buffered schedule: operand load of neuron k+1 overlaps the
  /// compute of neuron k (see engine::BatchStats). 0 behind a server,
  /// whose batches are shared across clients (Executor::private_batch).
  std::uint64_t pipelined_cycles = 0;
  /// Operand-load traffic of the layer's ops, and what pinned weights
  /// saved against re-poking (both routes; see engine/residency.hpp).
  std::uint64_t load_cycles = 0;
  std::uint64_t load_cycles_saved = 0;
  /// Compute cycles the fused whole-forward program saved vs op-at-a-time
  /// Table-1 issue (pinned forwards only; `cycles` is already net of this).
  std::uint64_t fused_cycles_saved = 0;
  /// Compute cycles the adaptive policy (MULT operand narrowing / zero
  /// skipping on the pinned engine) saved; `cycles` is already net of this.
  /// Sparse activations (ReLU outputs) are where this pays off.
  std::uint64_t adaptive_cycles_saved = 0;
  Joule energy{0.0};
  Second elapsed{0.0};

  /// Fold in one op's account; the op performed `op_macs` MACs.
  void add_op(const RunStats& r, std::uint64_t op_macs) {
    macs += op_macs;
    cycles += r.elapsed_cycles;
    load_cycles += r.load_cycles;
    load_cycles_saved += r.load_cycles_saved;
    fused_cycles_saved += r.fused_cycles_saved;
    adaptive_cycles_saved += r.adaptive_cycles_saved;
    energy += r.energy;
    elapsed += r.elapsed_time;
  }
  LayerStats& operator+=(const LayerStats& o) {
    macs += o.macs;
    cycles += o.cycles;
    pipelined_cycles += o.pipelined_cycles;
    load_cycles += o.load_cycles;
    load_cycles_saved += o.load_cycles_saved;
    fused_cycles_saved += o.fused_cycles_saved;
    adaptive_cycles_saved += o.adaptive_cycles_saved;
    energy += o.energy;
    elapsed += o.elapsed;
    return *this;
  }
};

/// Fully-connected layer with unsigned quantised weights and activations.
///
/// Constructed with an executor (engine or server), the layer pins its
/// quantised weight rows resident (engine/residency.hpp): repeated
/// forward() calls on that executor reference the handles instead of
/// re-poking the same rows, and last_stats() shows the saved load cycles.
/// A pinned layer's forward is also *fused*: the whole layer compiles into
/// one verified macro program per macro (compiled on the first forward),
/// executed on the
/// chained-MAC datapath with the activation staged once -- see
/// engine::ExecutionEngine::run_forward. Results and stats are identical
/// on every executor, apart from pipelined_cycles (0 behind a server); only
/// the cycle/energy account improves (LayerStats::fused_cycles_saved).
/// Pinning makes the layer move-only; it unpins on destruction, so destroy
/// it before the executor it pinned on.
class QuantizedLinear {
 public:
  /// `weights[j]` is the j-th output neuron's weight row.
  QuantizedLinear(std::vector<std::vector<double>> weights, unsigned bits);
  /// Pin the weights resident on `exec` at construction.
  QuantizedLinear(std::vector<std::vector<double>> weights, unsigned bits,
                  engine::Executor& exec);

  [[nodiscard]] unsigned bits() const { return bits_; }
  [[nodiscard]] std::size_t in_features() const;
  [[nodiscard]] std::size_t out_features() const { return weights_.size(); }
  /// True when the weights are pinned resident somewhere.
  [[nodiscard]] bool pinned() const { return !weight_handles_.handles().empty(); }

  /// Runs inference on the IMC memory; returns dequantised outputs (ReLU).
  /// All per-neuron multiplies are submitted as one ExecutionEngine batch
  /// (sharded across macros and threads, double-buffered row-pair loads).
  [[nodiscard]] std::vector<double> forward(macro::ImcMemory& mem,
                                            const std::vector<double>& x);
  /// Same, on a shared executor (an engine reuses its thread pool across
  /// layers and calls). Uses the resident weights when pinned on `exec`.
  [[nodiscard]] std::vector<double> forward(engine::Executor& exec,
                                            const std::vector<double>& x);

  /// Reference (double-precision, same quantised codes) for accuracy checks.
  [[nodiscard]] std::vector<double> forward_reference(const std::vector<double>& x) const;

  [[nodiscard]] const LayerStats& last_stats() const { return stats_; }

 private:
  std::vector<std::vector<double>> weights_raw_;
  std::vector<Quantized> weights_;
  unsigned bits_;
  LayerStats stats_{};
  /// One handle per output neuron when pinned (same order as weights_).
  PinnedHandles weight_handles_;
};

}  // namespace bpim::app
