#pragma once
// Batched request serving in front of the execution tier.
//
//   clients --submit()--> [bounded admission queue] --> scheduler thread
//                                                          |  coalesce
//                                                          v  + place
//                                  memory 0 .. memory N-1 (MemoryPool)
//                                  ExecutionEngine::run_batch on each
//
// Many client threads submit vector ops; a single scheduler thread drains
// the admission queue and coalesces *compatible* requests -- same kind and
// precision (and logic function) -- into one dispatch group. On a
// single-memory server the group is one run_batch call, as before. Over a
// serve::MemoryPool the group's layer budget is N memories' worth: a group
// whose summed row-pair layers exceed a single array's residency budget is
// split into per-memory sub-batches, each placed on the memory with the
// fewest modeled cycles in this server's ledger (least-loaded; the history
// is per server, so a second server on the same pool starts from empty
// lanes), and sub-batches on distinct memories execute concurrently.
// Operands pinned through pin() constrain both sides of that math: the
// coalescer budgets transient layers against capacity minus the pinned set,
// and a request referencing a handle is routed to the memory that holds it
// (the pin-per-memory registry; pin placement itself is by operand hash, so
// identical weights always pin to the same node). Within the backlog the
// scheduler serves strictly by (priority desc, admission order); deadlines
// are re-checked with a fresh clock at batch-build time, so a request that
// expired while held in the coalesce window or while an earlier batch ran
// fails with DeadlineExceeded instead of executing.
//
// Results are bit-identical to submitting each op alone through a serial
// engine on one memory: run_batch executes ops one after another with the
// same per-op chunk walk, per-op results do not depend on what ran before,
// and every pool memory is configuration-identical. Coalescing and
// placement change only the batch-level cycle account, never a client's
// values or RunStats.
//
// One dispatcher at a time, the scheduler or a submitting thread holding
// the token, owns scheduling state: a submit_forward on an idle server takes
// the queue's dispatch token and runs dispatch() itself. stop() (and the
// destructor) closes admission, drains everything already accepted, waits
// out an in-place dispatch, and joins -- no accepted future is abandoned.

#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "engine/execution_engine.hpp"
#include "obs/trace.hpp"
#include "serve/admission_queue.hpp"
#include "serve/memory_pool.hpp"
#include "serve/request.hpp"
#include "serve/serve_stats.hpp"

namespace bpim::serve {

/// As an engine::Executor (the app layer's route), run_batch submits every
/// op before waiting on any, so they coalesce with each other and with other
/// clients' work; run_forward is submit_forward().get() (the lane compiles
/// the fused program on first use); and there is no private batch account,
/// since a served batch is shared with other clients.
class Server : public engine::Executor {
 public:
  /// Single-memory server: wraps the engine in a non-owning pool of one.
  /// The engine (and its memory) must outlive the server; the server is the
  /// engine's only user while running.
  explicit Server(engine::ExecutionEngine& eng, ServerConfig cfg = {});
  /// Multi-memory server: route dispatch groups across the pool. The pool
  /// must outlive the server; the server is its only user while running.
  explicit Server(MemoryPool& pool, ServerConfig cfg = {});
  ~Server() override;  ///< stop()s: drains accepted work, then joins.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one op; blocks while the queue is full (backpressure). Operands
  /// are copied, so the caller's buffers may be freed on return. The future
  /// yields the op's OpResult, or throws DeadlineExceeded / ServerStopped.
  /// Throws std::invalid_argument on malformed ops (mismatched lengths,
  /// unsupported precision, vector exceeding memory capacity) and
  /// ServerStopped after stop().
  [[nodiscard]] std::future<engine::OpResult> submit(const engine::VecOp& op,
                                                     SubmitOptions opts = {})
      BPIM_EXCLUDES(pin_mutex_);
  /// Like submit() but never blocks: nullopt when the queue is full (the
  /// rejection is counted in ServeStats).
  [[nodiscard]] std::optional<std::future<engine::OpResult>> try_submit(
      const engine::VecOp& op, SubmitOptions opts = {}) BPIM_EXCLUDES(pin_mutex_);

  /// Admit a fused whole-forward request: every weight handle (all pinned
  /// through this server onto one pool memory) against one shared
  /// activation, executed as one fused macro program on the weights' home
  /// memory (ExecutionEngine::run_forward; falls back to op-at-a-time there
  /// when the shape cannot fuse -- values are identical either way). The
  /// activation is copied; results come back in `weights` order. On an
  /// idle server (zero coalesce window, empty unpaused queue) the call runs
  /// the forward itself and returns once it is done, future ready; to
  /// overlap own work with a forward, set a nonzero coalesce_window.
  [[nodiscard]] std::future<std::vector<engine::OpResult>> submit_forward(
      std::span<const engine::ResidentOperand> weights,
      std::span<const std::uint64_t> activation, SubmitOptions opts = {})
      BPIM_EXCLUDES(pin_mutex_);

  // ---- engine::Executor ----------------------------------------------------
  [[nodiscard]] std::vector<engine::OpResult> run_batch(std::span<const engine::VecOp> ops)
      BPIM_EXCLUDES(pin_mutex_) override;
  [[nodiscard]] std::vector<engine::OpResult> run_forward(
      std::span<const engine::ResidentOperand> weights,
      std::span<const std::uint64_t> activation) BPIM_EXCLUDES(pin_mutex_) override {
    return submit_forward(weights, activation).get();
  }
  [[nodiscard]] const engine::ExecutionEngine& shape() const override { return engine(); }
  [[nodiscard]] const engine::BatchStats* private_batch() const override { return nullptr; }

  /// Pin an operand resident behind the serving frontend: a deterministic
  /// operand hash picks the pool memory (so re-pinning the same values
  /// lands on the same node), the handle is registered there, and every
  /// later request referencing it is routed to that memory. The values are
  /// copied; the materializing write happens at first use, on one
  /// dispatcher at a time, the scheduler or a submitting thread holding the
  /// token. Thread-safe; throws ServerStopped after stop().
  /// `colocate_key`, when set, overrides the hash placement: handles pinned
  /// with the same key land on the same pool memory. submit_forward needs
  /// every weight of a layer on one node, so callers pin them under one key
  /// (e.g. a hash of the layer's identity).
  [[nodiscard]] engine::ResidentOperand pin(std::span<const std::uint64_t> values,
                                            unsigned bits, engine::OperandLayout layout,
                                            std::optional<std::uint64_t> colocate_key =
                                                std::nullopt)
      BPIM_EXCLUDES(pin_mutex_) override;
  /// Drop a pinned operand (false when unknown). Safe after stop() as long
  /// as the pool is alive; must not race requests that reference it.
  bool unpin(const engine::ResidentOperand& handle) BPIM_EXCLUDES(pin_mutex_) override;
  /// Pool memory holding `handle_id`, if pinned through this server.
  [[nodiscard]] std::optional<std::size_t> memory_of(std::uint64_t handle_id) const
      BPIM_EXCLUDES(pin_mutex_);

  /// Close admission, drain every accepted request, join the scheduler.
  /// Idempotent; implied by the destructor.
  void stop() BPIM_EXCLUDES(stop_mutex_);
  [[nodiscard]] bool stopped() const { return stopping_.load(std::memory_order_acquire); }

  /// Freeze/release the scheduler (admission stays open): stage a set of
  /// requests, then release them as one deterministic coalescing decision.
  /// Intended for tests and diagnostics.
  void pause();
  void resume();

  /// Set the adaptive execution policy (macro-level MULT operand narrowing
  /// and zero skipping) on every pool memory's engine. Takes effect from the
  /// next dispatched batch; safe to call concurrently with in-flight
  /// requests (engines snapshot the policy per run, and results are
  /// bit-identical either way -- only the cycle account moves).
  void set_adaptive_policy(macro::AdaptivePolicy policy) {
    for (std::size_t i = 0; i < pool_->size(); ++i)
      pool_->engine(i).set_adaptive_policy(policy);
  }

  [[nodiscard]] ServeStats stats() const;
  /// The first pool memory's engine (the only one on a single-memory
  /// server) -- kept for capacity/geometry queries; all pool memories are
  /// shape-identical.
  [[nodiscard]] engine::ExecutionEngine& engine() { return pool_->engine(0); }
  [[nodiscard]] const engine::ExecutionEngine& engine() const { return pool_->engine(0); }
  [[nodiscard]] const MemoryPool& pool() const { return *pool_; }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

 private:
  /// Validate + package one request (throws std::invalid_argument); the
  /// checks are the engine's (engine::validate), plus the pin-home lookup.
  detail::Ticket make_ticket(const engine::VecOp& op) BPIM_EXCLUDES(pin_mutex_);
  detail::Ticket make_forward_ticket(std::span<const engine::ResidentOperand> weights,
                                     std::span<const std::uint64_t> activation)
      BPIM_EXCLUDES(pin_mutex_);
  /// The pool memory holding `handles` (nullopt when none is set); throws
  /// unless every handle was pinned here, and `split_error` unless on one
  /// memory.
  std::optional<std::size_t> home_of(std::span<const engine::ResidentOperand> handles,
                                     const char* split_error) BPIM_EXCLUDES(pin_mutex_);
  /// Stamp the scheduling fields, trace and count the admission; returns
  /// the request's trace id.
  std::uint64_t stamp(detail::Ticket& t, SubmitOptions opts);
  /// Stamp, count and push (blocking on backpressure); a queue closed
  /// meanwhile rescinds the admission and fails the ticket's future.
  void admit(detail::Ticket&& t, SubmitOptions opts);
  void scheduler_loop();
  /// One scheduling decision: sort, expire, coalesce the head's group, place
  /// and execute it; the rest stays in `backlog`. Needs the dispatch token.
  void dispatch(std::vector<detail::Ticket>& backlog);
  /// Pool memory for each sub-batch of one group: a homed one's home, any
  /// other the least-loaded lane of the ledger (ties to the lowest index).
  [[nodiscard]] std::vector<std::size_t> place(
      const std::vector<std::vector<detail::Ticket>>& subs) const;
  /// Run one dispatch group: sub-batch i on pool memory where[i], distinct
  /// memories concurrently; each lane accounts and fulfills its own
  /// promises as it finishes (no cross-lane barrier for clients).
  void execute_group(std::vector<std::vector<detail::Ticket>>& subs,
                     const std::vector<std::size_t>& where);

  /// Per-request trace correlation key: unique across servers (the base is
  /// a per-server counter shifted clear of any realistic seq), so async
  /// "request" bars and submit->batch flow arrows never alias between two
  /// servers in one process.
  [[nodiscard]] std::uint64_t trace_id(std::uint64_t seq) const {
    return trace_id_base_ | seq;
  }
  /// Register the per-lane synthetic trace tracks; shared ctor tail.
  void init_tracing();

  std::optional<MemoryPool> owned_pool_;  ///< set by the single-engine ctor
  MemoryPool* pool_;
  const ServerConfig cfg_;
  AdmissionQueue queue_;
  mutable ServeLedger ledger_;
  /// handle id -> pool memory, for routing resident-operand requests.
  mutable Mutex pin_mutex_;
  std::unordered_map<std::uint64_t, std::size_t> pin_home_ BPIM_GUARDED_BY(pin_mutex_);
  /// Persistent lane workers for multi-memory dispatch groups (dispatching
  /// thread included); workers start lazily, so a pool-of-one server never
  /// spawns any.
  engine::ThreadPool lane_pool_;
  /// One synthetic trace track per pool memory: a lane's batches render on
  /// one timeline row whichever worker thread ran them.
  std::vector<obs::TrackId> lane_tracks_;
  std::uint64_t trace_id_base_ = 0;
  std::atomic<std::uint64_t> seq_{0};
  /// Set (under stop_mutex_) before admission closes; read lock-free by
  /// stopped()/submit fast paths. The release store in stop() pairs with
  /// the acquire load in stopped().
  std::atomic<bool> stopping_{false};
  Mutex stop_mutex_;  ///< serialises concurrent stop() calls
  /// Joined exactly once, by whichever stop() call holds stop_mutex_.
  std::thread scheduler_ BPIM_GUARDED_BY(stop_mutex_);
};

}  // namespace bpim::serve
