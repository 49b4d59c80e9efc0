#include "app/vector_engine.hpp"

#include "common/require.hpp"
#include "macro/isa.hpp"

namespace bpim::app {

VectorEngine::VectorEngine(macro::ImcMemory& memory, unsigned bits)
    : owned_(std::make_unique<engine::ExecutionEngine>(memory)), exec_(owned_.get()), bits_(bits) {
  BPIM_REQUIRE(macro::is_supported_precision(bits), "unsupported precision");
}

VectorEngine::VectorEngine(engine::Executor& exec, unsigned bits) : exec_(&exec), bits_(bits) {
  BPIM_REQUIRE(macro::is_supported_precision(bits), "unsupported precision");
}

std::size_t VectorEngine::words_per_row() const { return engine().words_per_row(bits_); }

std::size_t VectorEngine::mult_units_per_row() const {
  return engine().mult_units_per_row(bits_);
}

std::size_t VectorEngine::layer_capacity() const { return engine().layer_capacity(bits_); }

std::vector<std::uint64_t> VectorEngine::run_op(engine::OpKind kind, periph::LogicFn fn,
                                                std::span<const std::uint64_t> a,
                                                std::span<const std::uint64_t> b) {
  const engine::VecOp op{.kind = kind, .bits = bits_, .fn = fn, .a = a, .b = b};
  engine::OpResult res = std::move(exec_->run_batch(std::span(&op, 1)).front());
  last_ = res.stats;
  return std::move(res.values);
}

std::vector<std::uint64_t> VectorEngine::add(const std::vector<std::uint64_t>& a,
                                             const std::vector<std::uint64_t>& b) {
  return run_op(engine::OpKind::Add, periph::LogicFn::And, a, b);
}

std::vector<std::uint64_t> VectorEngine::sub(const std::vector<std::uint64_t>& a,
                                             const std::vector<std::uint64_t>& b) {
  return run_op(engine::OpKind::Sub, periph::LogicFn::And, a, b);
}

std::vector<std::uint64_t> VectorEngine::mult(const std::vector<std::uint64_t>& a,
                                              const std::vector<std::uint64_t>& b) {
  return run_op(engine::OpKind::Mult, periph::LogicFn::And, a, b);
}

std::vector<std::uint64_t> VectorEngine::logic(periph::LogicFn fn,
                                               const std::vector<std::uint64_t>& a,
                                               const std::vector<std::uint64_t>& b) {
  return run_op(engine::OpKind::Logic, fn, a, b);
}

std::vector<std::uint64_t> VectorEngine::add_shift(const std::vector<std::uint64_t>& a,
                                                   const std::vector<std::uint64_t>& b) {
  return run_op(engine::OpKind::AddShift, periph::LogicFn::And, a, b);
}

std::vector<std::uint64_t> VectorEngine::bit_not(const std::vector<std::uint64_t>& a) {
  return run_op(engine::OpKind::Not, periph::LogicFn::And, a, {});
}

std::vector<engine::OpResult> VectorEngine::mult_batch(
    const std::vector<std::pair<std::span<const std::uint64_t>,
                                std::span<const std::uint64_t>>>& pairs) {
  std::vector<engine::VecOp> ops;
  ops.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    engine::VecOp op;
    op.kind = engine::OpKind::Mult;
    op.bits = bits_;
    op.a = a;
    op.b = b;
    ops.push_back(op);
  }
  return run_ops(ops);
}

std::vector<engine::OpResult> VectorEngine::run_ops(const std::vector<engine::VecOp>& ops) {
  std::vector<engine::OpResult> results = exec_->run_batch(ops);
  // last_run() aggregates the whole batch, as a seed-era caller looping the
  // ops and summing per-op stats would have seen.
  last_ = RunStats{};
  for (const auto& r : results) last_ += r.stats;
  return results;
}

std::vector<engine::OpResult> VectorEngine::run_forward(
    std::span<const engine::ResidentOperand> weights,
    std::span<const std::uint64_t> activation) {
  std::vector<engine::OpResult> results = exec_->run_forward(weights, activation);
  last_ = RunStats{};
  for (const auto& r : results) last_ += r.stats;
  return results;
}

engine::ResidentOperand VectorEngine::pin_operand(std::span<const std::uint64_t> values,
                                                  engine::OperandLayout layout,
                                                  std::optional<std::uint64_t> colocate_key) {
  return exec_->pin(values, bits_, layout, colocate_key);
}

bool VectorEngine::unpin(const engine::ResidentOperand& handle) { return exec_->unpin(handle); }

}  // namespace bpim::app
