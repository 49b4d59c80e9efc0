#include "app/mlp.hpp"

#include <utility>

#include "common/require.hpp"

namespace bpim::app {

void Mlp::build(std::vector<MlpLayerSpec> layers, engine::Executor* exec) {
  BPIM_REQUIRE(!layers.empty(), "MLP needs at least one layer");
  BPIM_REQUIRE(!layers.front().weights.empty(), "layer has no neurons");
  std::size_t expected_in = layers.front().weights.front().size();
  for (auto& spec : layers) {
    BPIM_REQUIRE(!spec.weights.empty(), "layer has no neurons");
    BPIM_REQUIRE(spec.weights.front().size() == expected_in,
                 "layer input size does not match previous layer output");
    expected_in = spec.weights.size();
    if (exec != nullptr)
      layers_.emplace_back(spec.weights, spec.bits, *exec);
    else
      layers_.emplace_back(spec.weights, spec.bits);
  }
}

Mlp::Mlp(std::vector<MlpLayerSpec> layers) { build(std::move(layers), nullptr); }

Mlp::Mlp(std::vector<MlpLayerSpec> layers, engine::Executor& exec) {
  build(std::move(layers), &exec);
}

std::size_t Mlp::in_features() const { return layers_.front().in_features(); }
std::size_t Mlp::out_features() const { return layers_.back().out_features(); }

bool Mlp::pinned() const {
  for (const auto& layer : layers_)
    if (!layer.pinned()) return false;
  return true;
}

std::vector<double> Mlp::forward(macro::ImcMemory& mem, const std::vector<double>& x) {
  engine::ExecutionEngine eng(mem);
  return forward(eng, x);
}

std::vector<double> Mlp::forward(engine::Executor& exec, const std::vector<double>& x) {
  stats_ = LayerStats{};
  per_layer_.clear();
  std::vector<double> act = x;
  for (auto& layer : layers_) {
    act = layer.forward(exec, act);  // ReLU applied inside the layer
    per_layer_.push_back(layer.last_stats());
    stats_ += per_layer_.back();
  }
  return act;
}

std::vector<double> Mlp::forward_reference(const std::vector<double>& x) const {
  std::vector<double> act = x;
  for (const auto& layer : layers_) act = layer.forward_reference(act);
  return act;
}

}  // namespace bpim::app
