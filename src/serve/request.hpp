#pragma once
// Public request-side types of the serving subsystem: per-request options
// (priority, deadline), server configuration, the exceptions a client can
// see, and the internal Ticket that carries one admitted request from
// submit() through the admission queue to the scheduler.
//
// Operand ownership: submit() copies the operand spans into the ticket, so
// a client may free its buffers as soon as submit() returns -- unlike the
// raw ExecutionEngine API, whose spans must outlive the run() call. The
// VecOp inside a ticket points into the ticket's own vectors; std::vector
// moves keep heap storage stable, so the spans survive the ticket's travel
// through the queue.

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <stdexcept>
#include <vector>

#include "engine/execution_engine.hpp"

namespace bpim::serve {

using Clock = std::chrono::steady_clock;

/// Per-request scheduling knobs.
struct SubmitOptions {
  /// Higher priorities are scheduled first; ties break FIFO by admission
  /// order. Priority affects ordering only -- results are identical.
  int priority = 0;
  /// If set and the request is still queued when the scheduler picks up
  /// work after this instant, the request fails with DeadlineExceeded
  /// instead of executing. Checked at schedule time, not mid-execution.
  std::optional<Clock::time_point> deadline;
};

struct ServerConfig {
  /// Bounded admission queue: submit() blocks when full (backpressure),
  /// try_submit() returns nullopt.
  std::size_t queue_capacity = 256;
  /// Max requests coalesced into one ExecutionEngine::run_batch call. With a
  /// memory pool this is the per-memory sub-batch cap; one dispatch group
  /// may select up to max_batch_ops x pool-size requests.
  std::size_t max_batch_ops = 64;
  /// When > 0, the scheduler waits up to this long after finding the queue
  /// non-empty for more arrivals to coalesce (it stops waiting early once
  /// max_batch_ops requests are queued). 0 = schedule immediately; it also
  /// lets an idle server run a forward on the submitting thread.
  std::chrono::microseconds coalesce_window{0};
};

/// submit()/try_submit() after stop(): the server no longer admits work.
class ServerStopped : public std::runtime_error {
 public:
  ServerStopped() : std::runtime_error("bpim::serve::Server is stopped") {}
};

/// Set on a request's future when its deadline passed while it was queued.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("request deadline exceeded while queued") {}
};

namespace detail {

/// What a ticket asks the engine for. Op is the classic single VecOp;
/// Forward is a fused whole-forward request (engine/fusion.hpp) that
/// executes as one verified macro program and always dispatches as its own
/// group.
enum class ReqKind { Op, Forward };

/// One admitted request in flight. Move-only; the op's spans point into
/// this ticket's own a/b storage.
struct Ticket {
  ReqKind kind = ReqKind::Op;
  engine::VecOp op;  ///< the op; fused kinds use only its kind/bits labels
  std::vector<std::uint64_t> a, b;
  /// Forward requests: the pinned weight handles, in op order.
  std::vector<engine::ResidentOperand> fwd_weights;
  int priority = 0;
  std::optional<Clock::time_point> deadline;
  std::uint64_t seq = 0;  ///< admission order, the FIFO tiebreak
  Clock::time_point submit_time{};
  std::size_t layers = 0;  ///< row-pair layers, precomputed at submit
  /// Pool memory that holds the op's resident operand(s); requests with a
  /// handle must run there, everything else is free for placement.
  std::optional<std::size_t> home;
  std::promise<engine::OpResult> promise;  ///< Op results
  std::promise<std::vector<engine::OpResult>> fwd_promise;  ///< Forward results

  /// Row-pair layers the request stages through the transient region (the
  /// coalescer's budget math packs against this): a resident-operand Op
  /// computes in its handle's own pairs and consumes none; a fused Forward
  /// stages its shared activation (`layers` counts exactly that region) even
  /// though its weights are resident.
  [[nodiscard]] std::size_t transient_layers() const {
    return kind == ReqKind::Op && home ? 0 : layers;
  }

  /// Surface a scheduling failure on whichever promise the client holds.
  void fail(std::exception_ptr err) {
    if (kind == ReqKind::Forward)
      fwd_promise.set_exception(std::move(err));
    else
      promise.set_exception(std::move(err));
  }
};

}  // namespace detail
}  // namespace bpim::serve
