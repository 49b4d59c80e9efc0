#pragma once
// Multi-layer perceptron with *per-layer* precision on the IMC memory --
// the mixed-precision inference scenario the paper's reconfigurable
// datapath targets: early layers keep 8-bit fidelity, later layers drop to
// 4- or 2-bit, all on the same silicon (Fig 6).

#include <vector>

#include "app/nn.hpp"

namespace bpim::app {

struct MlpLayerSpec {
  std::vector<std::vector<double>> weights;  ///< [out][in]
  unsigned bits = 8;
};

class Mlp {
 public:
  /// Layer i's input size must equal layer i-1's output size.
  explicit Mlp(std::vector<MlpLayerSpec> layers);
  /// Pin every layer's weights resident on `exec` at construction: repeated
  /// forward(exec, ...) calls reference the handles instead of re-poking
  /// identical weight rows (engine/residency.hpp), and each layer runs as
  /// one fused compiled macro program (QuantizedLinear). Bit-identical
  /// results; destroy the Mlp before the executor.
  Mlp(std::vector<MlpLayerSpec> layers, engine::Executor& exec);

  [[nodiscard]] std::size_t depth() const { return layers_.size(); }
  [[nodiscard]] std::size_t in_features() const;
  [[nodiscard]] std::size_t out_features() const;
  [[nodiscard]] bool pinned() const;

  /// Full forward pass on the IMC memory (ReLU between layers). One
  /// ExecutionEngine (thread pool) is shared by every layer.
  [[nodiscard]] std::vector<double> forward(macro::ImcMemory& mem,
                                            const std::vector<double>& x);
  /// Same, on a caller-provided executor (reused across forward() calls;
  /// resident weights when the Mlp was pinned on it).
  [[nodiscard]] std::vector<double> forward(engine::Executor& exec,
                                            const std::vector<double>& x);
  /// Host-side reference with the same quantisation.
  [[nodiscard]] std::vector<double> forward_reference(const std::vector<double>& x) const;

  /// Aggregated stats of the last forward() (all layers).
  [[nodiscard]] const LayerStats& last_stats() const { return stats_; }
  /// Per-layer stats of the last forward().
  [[nodiscard]] const std::vector<LayerStats>& layer_stats() const { return per_layer_; }

 private:
  void build(std::vector<MlpLayerSpec> layers, engine::Executor* exec);

  std::vector<QuantizedLinear> layers_;
  LayerStats stats_{};
  std::vector<LayerStats> per_layer_;
};

}  // namespace bpim::app
