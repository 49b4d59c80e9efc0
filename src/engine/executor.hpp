#pragma once
// The request vocabulary (VecOp, OpResult) and the one interface the app
// layer dispatches through.
//
// Executor is what src/app needs from an execution tier and no more: a
// synchronous batch, a fused forward, operand pinning, a shape for geometry
// queries, and -- where there is one -- the caller's private batch account.
// ExecutionEngine implements it directly; serve::Server implements it by
// submitting through its admission queue and waiting, so app classes
// written against an Executor& run unchanged on either, with bit-identical
// values and per-op RunStats.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/residency.hpp"
#include "engine/run_stats.hpp"
#include "periph/falogics.hpp"

namespace bpim::engine {

/// Every macro ISA op kind the engine dispatches. AddShift retires its
/// shifted sum into the dummy accumulator (D2) and Not drives the inverted
/// row out via the dummy operand row (D1), so no single-op program ever
/// writes a main row -- resident operands cannot be clobbered by dispatch.
enum class OpKind { Add, Sub, Mult, AddShift, Not, Logic };

[[nodiscard]] const char* to_string(OpKind kind);

/// One element-wise vector operation. Each operand is either a borrowed
/// span (today's path: spans must stay valid until the run()/run_batch()
/// call returns) or a resident handle from ExecutionEngine::pin(); a side
/// with a handle must leave its span empty. Handle-backed ops compute in
/// the handle's own row pairs and skip that side's operand-load cycles.
/// Not is unary: side b (span and handle) must stay empty.
struct VecOp {
  OpKind kind = OpKind::Add;
  unsigned bits = 8;
  periph::LogicFn fn = periph::LogicFn::And;  ///< Logic ops only
  std::span<const std::uint64_t> a;
  std::span<const std::uint64_t> b;
  ResidentOperand ra{};  ///< resident operand a (span a must be empty)
  ResidentOperand rb{};  ///< resident operand b (span b must be empty)

  /// Element count, whichever way the operands are given.
  [[nodiscard]] std::size_t length() const {
    if (ra) return static_cast<std::size_t>(ra.elements);
    if (rb) return static_cast<std::size_t>(rb.elements);
    return a.size();
  }
};

struct OpResult {
  std::vector<std::uint64_t> values;
  RunStats stats;
};

class ExecutionEngine;

class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  /// Execute independent ops; results in submission order.
  [[nodiscard]] virtual std::vector<OpResult> run_batch(std::span<const VecOp> ops) = 0;
  /// Every weight handle against one shared activation, fused where the
  /// shape allows (ExecutionEngine::run_forward); results in `weights` order.
  [[nodiscard]] virtual std::vector<OpResult> run_forward(
      std::span<const ResidentOperand> weights, std::span<const std::uint64_t> activation) = 0;

  /// Pin an operand resident. Handles pinned under one `colocate_key` share
  /// a memory (what a fused forward's weights need); a single-memory
  /// executor ignores the key.
  [[nodiscard]] virtual ResidentOperand pin(std::span<const std::uint64_t> values,
                                            unsigned bits, OperandLayout layout,
                                            std::optional<std::uint64_t> colocate_key =
                                                std::nullopt) = 0;
  /// Drop a pinned operand (false when unknown).
  virtual bool unpin(const ResidentOperand& handle) = 0;

  /// An engine shape-identical to every memory this executor dispatches to,
  /// for geometry and capacity queries.
  [[nodiscard]] virtual const ExecutionEngine& shape() const = 0;
  /// The last dispatch's BatchStats when that batch belonged to this caller
  /// alone; nullptr behind a server, where batches are shared across clients.
  [[nodiscard]] virtual const BatchStats* private_batch() const = 0;
};

}  // namespace bpim::engine
