#include "app/nn.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"

namespace bpim::app {

Quantized quantize(const std::vector<double>& x, unsigned bits) {
  BPIM_REQUIRE(!x.empty(), "cannot quantise an empty vector");
  BPIM_REQUIRE(bits >= 2 && bits <= 32, "quantisation width out of range");
  double lo = 0.0, hi = 0.0;
  for (const double v : x) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Unsigned codes; negative inputs are clamped (callers pre-shift if they
  // need signed ranges -- keeps the in-memory arithmetic unsigned like the
  // paper's datapath).
  const double levels = static_cast<double>((1ull << bits) - 1);
  const double scale = hi > 0.0 ? hi / levels : 1.0;
  Quantized q;
  q.scale = scale;
  q.values.reserve(x.size());
  // clamp(round(v / scale), 0, levels) without the libm call: clamping
  // first to integer bounds commutes with rounding, and on [0, levels]
  // truncation is floor, whose remainder y - t is exact.
  for (const double v : x) {
    const double y = std::clamp(v / scale, 0.0, levels);
    const auto t = static_cast<std::uint64_t>(y);
    q.values.push_back(y - static_cast<double>(t) >= 0.5 ? t + 1 : t);
  }
  return q;
}

QuantizedLinear::QuantizedLinear(std::vector<std::vector<double>> weights, unsigned bits)
    : weights_raw_(std::move(weights)), bits_(bits) {
  BPIM_REQUIRE(!weights_raw_.empty(), "layer needs at least one output neuron");
  const std::size_t in = weights_raw_.front().size();
  for (const auto& row : weights_raw_) {
    BPIM_REQUIRE(row.size() == in, "ragged weight matrix");
    weights_.push_back(quantize(row, bits));
  }
}

QuantizedLinear::QuantizedLinear(std::vector<std::vector<double>> weights, unsigned bits,
                                 engine::Executor& exec)
    : QuantizedLinear(std::move(weights), bits) {
  // All rows of one layer pin under one colocate key so a multi-memory
  // server homes them together -- the fused forward needs every weight on
  // the memory that runs the program.
  std::uint64_t key = 1469598103934665603ull;
  const auto mix = [&key](std::uint64_t v) {
    key ^= v;
    key *= 1099511628211ull;
  };
  mix(bits_);
  for (const auto& w : weights_)
    for (const std::uint64_t v : w.values) mix(v);
  VectorEngine ve(exec, bits_);
  weight_handles_ = PinnedHandles(exec);
  for (const auto& w : weights_)
    weight_handles_.push_back(ve.pin_operand(w.values, engine::OperandLayout::MultUnit, key));
}

std::size_t QuantizedLinear::in_features() const { return weights_raw_.front().size(); }

std::vector<double> QuantizedLinear::forward(macro::ImcMemory& mem,
                                             const std::vector<double>& x) {
  engine::ExecutionEngine eng(mem);
  return forward(eng, x);
}

std::vector<double> QuantizedLinear::forward(engine::Executor& exec,
                                             const std::vector<double>& x) {
  BPIM_REQUIRE(x.size() == in_features(), "input size mismatch");
  const Quantized qx = quantize(x, bits_);
  VectorEngine ve(exec, bits_);

  // Resident weights run as one fused whole-forward program (the engine
  // falls back to op-at-a-time transparently when the shape is unfusable).
  // Otherwise, one engine batch: every output neuron's product vector is an
  // independent op, so loads double-buffer against computes across neurons.
  std::vector<engine::OpResult> results;
  if (weight_handles_.on(exec)) {
    results = ve.run_forward(weight_handles_.handles(), qx.values);
  } else {
    std::vector<engine::VecOp> ops;
    ops.reserve(weights_.size());
    for (const Quantized& w : weights_)
      ops.push_back({.kind = engine::OpKind::Mult, .bits = bits_, .a = w.values, .b = qx.values});
    results = ve.run_ops(ops);
  }

  stats_ = LayerStats{};
  if (const engine::BatchStats* b = exec.private_batch())
    stats_.pipelined_cycles = b->pipelined_cycles;
  std::vector<double> y;
  y.reserve(out_features());
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    // In-memory products, host-side accumulate (see header).
    std::uint64_t acc = 0;
    for (const auto p : results[j].values) acc += p;
    stats_.add_op(results[j].stats, x.size());
    const double real = static_cast<double>(acc) * weights_[j].scale * qx.scale;
    y.push_back(std::max(0.0, real));  // ReLU
  }
  return y;
}

std::vector<double> QuantizedLinear::forward_reference(const std::vector<double>& x) const {
  BPIM_REQUIRE(x.size() == in_features(), "input size mismatch");
  const Quantized qx = quantize(x, bits_);
  std::vector<double> y;
  y.reserve(out_features());
  for (const auto& w : weights_) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += static_cast<double>(w.values[i]) * static_cast<double>(qx.values[i]);
    y.push_back(std::max(0.0, acc * w.scale * qx.scale));
  }
  return y;
}

}  // namespace bpim::app
