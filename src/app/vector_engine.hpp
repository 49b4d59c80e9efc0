#pragma once
// Element-wise vector operations over the IMC memory.
//
// The engine tiles a vector across macros (data-parallel) and across row
// pairs within each macro (time-multiplexed): each macro-level operation
// processes all cols/N words of one row pair per Table-1 cycle count. This
// is the word-parallelism the paper's Fig 9 sweeps against the bit-serial
// baseline.
//
// Layout per chunk: operand A in row 2k, operand B in row 2k+1 of the same
// macro (dual-WL operands must share columns). MULT uses the 2N-bit unit
// layout (operands in unit low halves).
//
// Execution goes through one engine::Executor (engine/executor.hpp): an
// engine::ExecutionEngine shards the per-macro chunks over its persistent
// thread pool, and a serve::Server submits through its admission queue,
// where the op may coalesce with other clients' work and, on a multi-memory
// server, run on any memory of the serve::MemoryPool. Results and RunStats
// are bit-identical on either, and to a serial walk at any thread count.
// The (memory, bits) constructor keeps the seed API and owns a private
// engine.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"

namespace bpim::app {

using RunStats = engine::RunStats;

class VectorEngine {
 public:
  VectorEngine(macro::ImcMemory& memory, unsigned bits);
  /// Route every op through `exec` (an engine, or a server's queue).
  VectorEngine(engine::Executor& exec, unsigned bits);

  [[nodiscard]] unsigned bits() const { return bits_; }
  /// The engine geometry queries use (shape-identical across a pool).
  [[nodiscard]] const engine::ExecutionEngine& engine() const { return exec_->shape(); }
  /// Elements processed by one macro op (one row pair).
  [[nodiscard]] std::size_t words_per_row() const;
  [[nodiscard]] std::size_t mult_units_per_row() const;
  /// Max elements resident at once across all macros (one row-pair layer).
  [[nodiscard]] std::size_t layer_capacity() const;

  // Element-wise c = a (op) b. Values must fit `bits`; MULT returns 2N-bit
  // products. Sizes of a and b must match.
  [[nodiscard]] std::vector<std::uint64_t> add(const std::vector<std::uint64_t>& a,
                                               const std::vector<std::uint64_t>& b);
  [[nodiscard]] std::vector<std::uint64_t> sub(const std::vector<std::uint64_t>& a,
                                               const std::vector<std::uint64_t>& b);
  [[nodiscard]] std::vector<std::uint64_t> mult(const std::vector<std::uint64_t>& a,
                                                const std::vector<std::uint64_t>& b);
  [[nodiscard]] std::vector<std::uint64_t> logic(periph::LogicFn fn,
                                                 const std::vector<std::uint64_t>& a,
                                                 const std::vector<std::uint64_t>& b);
  /// Element-wise ((a + b) mod 2^bits) << 1, kept in-field (MSB dropped,
  /// LSB zero) -- the macro's ADD-Shift step exposed as a vector op.
  [[nodiscard]] std::vector<std::uint64_t> add_shift(const std::vector<std::uint64_t>& a,
                                                     const std::vector<std::uint64_t>& b);
  /// Element-wise bitwise complement within `bits` ((~a) masked).
  [[nodiscard]] std::vector<std::uint64_t> bit_not(const std::vector<std::uint64_t>& a);

  /// Batched multiply: pairs[k] = (a_k, b_k) run as one double-buffered
  /// engine batch (per-op stats via the results; overlap via the
  /// executor's private_batch()).
  [[nodiscard]] std::vector<engine::OpResult> mult_batch(
      const std::vector<std::pair<std::span<const std::uint64_t>,
                                  std::span<const std::uint64_t>>>& pairs);

  /// Run a pre-built op list (resident handles allowed) as one batch.
  /// Results are in submission order; last_run() aggregates the whole batch.
  [[nodiscard]] std::vector<engine::OpResult> run_ops(const std::vector<engine::VecOp>& ops);

  /// Fused whole-forward: every pinned weight against one shared activation
  /// as a single compiled macro program (ExecutionEngine::run_forward).
  /// Bit-identical to running the equivalent MULT op per weight; only the
  /// cycle/energy account improves.
  [[nodiscard]] std::vector<engine::OpResult> run_forward(
      std::span<const engine::ResidentOperand> weights,
      std::span<const std::uint64_t> activation);

  // ---- persistent operand residency ---------------------------------------
  /// Pin a constant operand (e.g. a weight row) resident at this engine's
  /// precision; the handle goes into VecOp::ra / rb. Layout must match the
  /// op kind it will be used with (MultUnit for mult, Word otherwise).
  /// `colocate_key` makes handles pinned under one key share a pool memory
  /// -- what a fused forward's weights need (Executor::pin).
  [[nodiscard]] engine::ResidentOperand pin_operand(
      std::span<const std::uint64_t> values, engine::OperandLayout layout,
      std::optional<std::uint64_t> colocate_key = std::nullopt);
  /// Drop a pinned operand (false when unknown).
  bool unpin(const engine::ResidentOperand& handle);

  /// Stats of the last op -- or, after mult_batch(), the sum over the whole
  /// batch (per-op compute cycles, no load overlap; the pipelined view is
  /// the executor's private_batch()).
  [[nodiscard]] const RunStats& last_run() const { return last_; }

 private:
  std::vector<std::uint64_t> run_op(engine::OpKind kind, periph::LogicFn fn,
                                    std::span<const std::uint64_t> a,
                                    std::span<const std::uint64_t> b);

  std::unique_ptr<engine::ExecutionEngine> owned_;  ///< set by the (memory, bits) ctor
  engine::Executor* exec_;
  unsigned bits_;
  RunStats last_{};
};

/// Operands pinned on one executor, unpinned on destruction or when moved
/// over: the move-only ownership of the pinned app classes. Destroy it
/// before the executor it pinned on.
class PinnedHandles {
 public:
  PinnedHandles() = default;
  explicit PinnedHandles(engine::Executor& on) : pinned_on_(&on) {}
  PinnedHandles(PinnedHandles&& o) noexcept
      : pinned_on_(std::exchange(o.pinned_on_, nullptr)),
        handles_(std::exchange(o.handles_, {})) {}
  PinnedHandles& operator=(PinnedHandles&& o) noexcept {
    if (this != &o) {
      release();
      pinned_on_ = std::exchange(o.pinned_on_, nullptr);
      handles_ = std::exchange(o.handles_, {});
    }
    return *this;
  }
  ~PinnedHandles() { release(); }

  void push_back(const engine::ResidentOperand& h) { handles_.push_back(h); }
  [[nodiscard]] bool on(const engine::Executor& exec) const { return pinned_on_ == &exec; }
  [[nodiscard]] const std::vector<engine::ResidentOperand>& handles() const { return handles_; }

 private:
  void release() noexcept {
    for (const auto& h : handles_) (void)pinned_on_->unpin(h);
    handles_.clear();
  }

  engine::Executor* pinned_on_ = nullptr;
  std::vector<engine::ResidentOperand> handles_;
};

}  // namespace bpim::app
