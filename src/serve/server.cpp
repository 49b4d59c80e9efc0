#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"
#include "macro/isa.hpp"

namespace bpim::serve {

using engine::OpKind;
using engine::OpResult;
using engine::VecOp;

namespace {

/// Pin placement key: FNV-1a over the pinned values and shape, so the same
/// weights always pin to the same pool memory.
std::uint64_t hash_pin(std::span<const std::uint64_t> values, unsigned bits,
                       engine::OperandLayout layout) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(bits);
  mix(static_cast<std::uint64_t>(layout));
  for (const std::uint64_t x : values) mix(x);
  return h;
}

/// Trace lineage of one request: an async "request" bar from admission to
/// settlement, plus a flow arrow tail inside the caller's submit span. The
/// bar's id correlates every event of one request across tracks.
void trace_request_admitted(std::uint64_t rid, const detail::Ticket& t) {
  if (!BPIM_TRACE_ON()) return;
  auto& trace = obs::TraceSession::global();
  trace.async_begin("request", rid,
                    obs::EventArgs{{"priority", static_cast<double>(t.priority)},
                                   {"layers", static_cast<double>(t.layers)}});
  trace.flow_start("req", rid);
}

/// Close a request bar that never executed (rescinded admission, expiry).
void trace_request_dropped(std::uint64_t rid, const char* why) {
  if (!BPIM_TRACE_ON()) return;
  obs::TraceSession::global().async_end("request", rid,
                                        obs::EventArgs{{why, 1.0}});
}

}  // namespace

void Server::init_tracing() {
  // Request ids: server instance in the top bits, admission seq below.
  // 2^40 requests per server before the spaces could touch.
  static std::atomic<std::uint64_t> server_counter{0};
  trace_id_base_ = server_counter.fetch_add(1, std::memory_order_relaxed) << 40;
  obs::TraceSession& trace = obs::TraceSession::global();
  lane_tracks_.reserve(pool_->size());
  for (std::size_t m = 0; m < pool_->size(); ++m)
    lane_tracks_.push_back(trace.register_track("lane " + std::to_string(m)));
}

Server::Server(engine::ExecutionEngine& eng, ServerConfig cfg)
    : owned_pool_(std::in_place, std::vector<engine::ExecutionEngine*>{&eng}),
      pool_(&*owned_pool_),
      cfg_(cfg),
      queue_(cfg.queue_capacity),
      ledger_(pool_->size()),
      lane_pool_(pool_->size()) {
  BPIM_REQUIRE(cfg_.max_batch_ops > 0, "max_batch_ops must be positive");
  init_tracing();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::Server(MemoryPool& pool, ServerConfig cfg)
    : pool_(&pool),
      cfg_(cfg),
      queue_(cfg.queue_capacity),
      ledger_(pool.size()),
      lane_pool_(pool.size()) {
  BPIM_REQUIRE(cfg_.max_batch_ops > 0, "max_batch_ops must be positive");
  init_tracing();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::~Server() { stop(); }

std::optional<std::size_t> Server::home_of(std::span<const engine::ResidentOperand> handles,
                                           const char* split_error) {
  // Resident operands anchor the request to the memory that holds them;
  // every handle of one request must agree.
  std::optional<std::size_t> home;
  MutexLock lk(pin_mutex_);
  for (const engine::ResidentOperand& h : handles) {
    if (!h) continue;
    const auto it = pin_home_.find(h.id);
    BPIM_REQUIRE(it != pin_home_.end(), "resident operand was not pinned through this server");
    BPIM_REQUIRE(!home || *home == it->second, split_error);
    home = it->second;
  }
  return home;
}

detail::Ticket Server::make_ticket(const VecOp& op) {
  // Validate at admission so malformed ops throw on the client's thread,
  // not inside the scheduler. One op never splits across memories (its
  // chunk walk is per-memory), so it must fit a single array.
  detail::Ticket t;
  t.layers = engine::validate(op, pool_->engine(0));
  const engine::ResidentOperand handles[] = {op.ra, op.rb};
  t.home = home_of(handles, "op references resident operands on different pool memories");
  t.a.assign(op.a.begin(), op.a.end());
  t.b.assign(op.b.begin(), op.b.end());
  t.op = op;
  t.op.a = t.a;
  t.op.b = t.b;
  return t;
}

detail::Ticket Server::make_forward_ticket(std::span<const engine::ResidentOperand> weights,
                                           std::span<const std::uint64_t> activation) {
  detail::Ticket t;
  // The budget the ticket occupies is its transient activation region; the
  // weights' rows are already down on the home memory.
  t.layers = engine::validate_forward(weights, activation.size());
  t.home = home_of(weights,
                   "fused forward weights live on different pool memories -- pin them under "
                   "one colocate_key");
  t.kind = detail::ReqKind::Forward;
  t.op.kind = OpKind::Mult;  // labels for BatchRecord/compatibility checks
  t.op.bits = weights.front().bits;
  t.a.assign(activation.begin(), activation.end());
  t.fwd_weights.assign(weights.begin(), weights.end());
  return t;
}

std::uint64_t Server::stamp(detail::Ticket& t, SubmitOptions opts) {
  t.priority = opts.priority;
  t.deadline = opts.deadline;
  t.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  t.submit_time = Clock::now();
  const std::uint64_t rid = trace_id(t.seq);
  trace_request_admitted(rid, t);
  // Count before the ticket can run: once it is queued or dispatched it may
  // complete, and a stats() snapshot must never show completed > submitted.
  ledger_.on_submitted();
  return rid;
}

void Server::admit(detail::Ticket&& t, SubmitOptions opts) {
  const std::uint64_t rid = stamp(t, opts);
  if (!queue_.push(std::move(t))) {
    // The queue closed while we were blocked on backpressure: the request
    // was never accepted, so its future carries the stop.
    ledger_.on_submit_rescinded();
    trace_request_dropped(rid, "rescinded");
    t.fail(std::make_exception_ptr(ServerStopped()));
  }
}

std::future<OpResult> Server::submit(const VecOp& op, SubmitOptions opts) {
  if (stopped()) throw ServerStopped();
  BPIM_TRACE_SPAN(span, "serve.submit");
  detail::Ticket t = make_ticket(op);
  std::future<OpResult> fut = t.promise.get_future();
  admit(std::move(t), opts);
  return fut;
}

std::future<std::vector<OpResult>> Server::submit_forward(
    std::span<const engine::ResidentOperand> weights,
    std::span<const std::uint64_t> activation, SubmitOptions opts) {
  if (stopped()) throw ServerStopped();
  BPIM_TRACE_SPAN(span, "serve.submit_forward");
  detail::Ticket t = make_forward_ticket(weights, activation);
  std::future<std::vector<OpResult>> fut = t.fwd_promise.get_future();
  // A forward always dispatches as a group of its own: on an idle server
  // this thread makes the scheduler's decision and skips two handoffs.
  if (cfg_.coalesce_window.count() > 0 || !queue_.try_take_token()) {
    admit(std::move(t), opts);
    return fut;
  }
  const struct GiveBack { AdmissionQueue& q; ~GiveBack() { q.give_token(); } } give{queue_};
  stamp(t, opts);
  std::vector<detail::Ticket> backlog;
  backlog.push_back(std::move(t));
  dispatch(backlog);
  return fut;
}

std::vector<OpResult> Server::run_batch(std::span<const VecOp> ops) {
  std::vector<OpResult> results;
  results.reserve(ops.size());
  if (ops.size() == 1) {  // one op (VectorEngine::add etc.): no futures vector
    results.push_back(submit(ops[0]).get());
    return results;
  }
  std::vector<std::future<OpResult>> futs;
  futs.reserve(ops.size());
  for (const VecOp& op : ops) futs.push_back(submit(op));
  for (auto& f : futs) results.push_back(f.get());
  return results;
}

std::optional<std::future<OpResult>> Server::try_submit(const VecOp& op, SubmitOptions opts) {
  if (stopped()) throw ServerStopped();
  // Fail fast before the operand deep-copy; try_push below stays the
  // authoritative full/closed check.
  if (queue_.depth() >= queue_.capacity()) {
    ledger_.on_rejected();
    BPIM_TRACE_INSTANT("serve.reject");
    return std::nullopt;
  }
  BPIM_TRACE_SPAN(span, "serve.submit");
  detail::Ticket t = make_ticket(op);
  std::future<OpResult> fut = t.promise.get_future();
  const std::uint64_t rid = stamp(t, opts);
  if (!queue_.try_push(std::move(t))) {
    ledger_.on_submit_rescinded();
    if (queue_.closed()) {
      trace_request_dropped(rid, "rescinded");
      throw ServerStopped();
    }
    ledger_.on_rejected();
    trace_request_dropped(rid, "rejected");
    return std::nullopt;
  }
  return fut;
}

engine::ResidentOperand Server::pin(std::span<const std::uint64_t> values, unsigned bits,
                                    engine::OperandLayout layout,
                                    std::optional<std::uint64_t> colocate_key) {
  if (stopped()) throw ServerStopped();
  // Deterministic hash placement: the same weight values always pin to the
  // same node, whatever ran before. A colocate key overrides the value hash
  // so a fused forward's weights share a node.
  const std::size_t m = pool_->size() == 1 ? 0
                        : colocate_key     ? *colocate_key % pool_->size()
                                           : hash_pin(values, bits, layout) % pool_->size();
  const engine::ResidentOperand handle = pool_->engine(m).pin(values, bits, layout);
  {
    MutexLock lk(pin_mutex_);
    pin_home_.emplace(handle.id, m);
  }
  return handle;
}

bool Server::unpin(const engine::ResidentOperand& handle) {
  if (!handle) return false;
  std::size_t m = 0;
  {
    MutexLock lk(pin_mutex_);
    const auto it = pin_home_.find(handle.id);
    if (it == pin_home_.end()) return false;
    m = it->second;
    pin_home_.erase(it);
  }
  return pool_->engine(m).unpin(handle);
}

std::optional<std::size_t> Server::memory_of(std::uint64_t handle_id) const {
  MutexLock lk(pin_mutex_);
  const auto it = pin_home_.find(handle_id);
  return it == pin_home_.end() ? std::nullopt : std::optional<std::size_t>(it->second);
}

void Server::stop() {
  MutexLock lk(stop_mutex_);
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  queue_.set_paused(false);  // a paused scheduler must still drain and exit
  if (scheduler_.joinable()) scheduler_.join();
}

void Server::pause() { queue_.set_paused(true); }
void Server::resume() { queue_.set_paused(false); }

ServeStats Server::stats() const {
  return ledger_.snapshot(queue_.depth(), queue_.peak_depth());
}

void Server::scheduler_loop() {
#if BPIM_OBS_ENABLED
  obs::TraceSession::global().set_thread_name("scheduler");
#endif
  const std::size_t fill_target = cfg_.max_batch_ops * pool_->size();
  std::vector<detail::Ticket> backlog;
  for (;;) {
    // Top up the backlog: block only when there is nothing left to run.
    if (!backlog.empty())
      queue_.try_pop_all(backlog);
    else if (!queue_.wait_pop_all(backlog, cfg_.coalesce_window, fill_target))
      break;  // closed and fully drained
    dispatch(backlog);
  }
}

void Server::dispatch(std::vector<detail::Ticket>& backlog) {
  // One dispatch group spans the whole pool: up to max_batch_ops requests
  // and one array's worth of layers per memory.
  const std::size_t capacity = pool_->row_pair_capacity();
  const std::size_t group_op_budget = cfg_.max_batch_ops * pool_->size();

  // One scheduling decision: sort, expire, coalesce, place, dispatch.
  BPIM_TRACE_SPAN(sched_span, "serve.schedule");
  sched_span.arg("backlog", static_cast<double>(backlog.size()));

  // Serve order: priority desc, admission order within a priority level.
  std::sort(backlog.begin(), backlog.end(),
            [](const detail::Ticket& x, const detail::Ticket& y) {
              return x.priority != y.priority ? x.priority > y.priority : x.seq < y.seq;
            });

  // Deadlines are (re-)checked at batch-build time with a fresh clock: a
  // request that expired while queued, while held in the coalesce window,
  // or while an earlier batch ran fails here instead of executing. Ledger
  // before promises: a client that wakes on its future must already see
  // its expiry in stats().
  const auto now = Clock::now();
  std::vector<detail::Ticket> lapsed;
  std::erase_if(backlog, [&](detail::Ticket& t) {
    if (!t.deadline || now <= *t.deadline) return false;
    lapsed.push_back(std::move(t));
    return true;
  });
  if (!lapsed.empty()) {
    ledger_.on_expired(lapsed.size());
    for (auto& t : lapsed) {
      trace_request_dropped(trace_id(t.seq), "expired");
      t.fail(std::make_exception_ptr(DeadlineExceeded()));
    }
  }
  if (backlog.empty()) return;

  // Budgets account for pinned layers: transient (span) operands can only
  // stage into capacity minus each memory's resident set, while requests
  // referencing a handle ride free -- their rows are already down on
  // their home memory. Recomputed per group, since materialization and
  // eviction move the resident set between wakeups.
  std::size_t group_layer_budget = 0;
  for (std::size_t m = 0; m < pool_->size(); ++m)
    group_layer_budget += capacity - std::min(capacity, pool_->resident_layers(m));
  const std::size_t unhomed_budget =
      capacity - std::min(capacity, pool_->max_resident_layers());

  // Coalesce from the head: every compatible request (same kind and
  // precision, same logic fn) that still fits the group budget rides
  // along; the rest wait for a later group. The head always goes (the
  // engine evicts pinned rows LRU-first if it must). A fused Forward head
  // is already one whole program: nothing coalesces with it, and its home
  // memory (its weights') binds placement.
  const bool fused_head = backlog.front().kind != detail::ReqKind::Op;
  const OpKind kind = backlog.front().op.kind;
  const unsigned bits = backlog.front().op.bits;
  const periph::LogicFn fn = backlog.front().op.fn;
  std::vector<detail::Ticket> selected;
  std::vector<detail::Ticket> rest;
  std::size_t transient_layers = 0;
  for (auto& t : backlog) {
    const bool compatible = !fused_head && t.kind == detail::ReqKind::Op &&
                            t.op.kind == kind && t.op.bits == bits &&
                            (kind != OpKind::Logic || t.op.fn == fn);
    if (selected.empty() ||
        (compatible && selected.size() < group_op_budget &&
         transient_layers + t.transient_layers() <= group_layer_budget)) {
      transient_layers += t.transient_layers();
      selected.push_back(std::move(t));
    } else {
      rest.push_back(std::move(t));
    }
  }
  backlog = std::move(rest);

  // Split the selection into per-memory sub-batches: greedy in serve
  // order, each within one array's transient budget and the per-batch op
  // cap. Requests that reference resident operands must run on their
  // home memory, so a home change also cuts a sub-batch; homed
  // sub-batches stage nothing transient and pack by op count alone. On a
  // pool of one with nothing pinned this is the original single
  // sub-batch.
  std::vector<std::vector<detail::Ticket>> subs;
  std::size_t sub_transient = 0;
  for (auto& t : selected) {
    const std::size_t tl = t.transient_layers();
    const std::size_t sub_budget =
        t.home ? capacity : std::max<std::size_t>(unhomed_budget, 1);
    if (subs.empty() || subs.back().front().home != t.home ||
        subs.back().size() >= cfg_.max_batch_ops || sub_transient + tl > sub_budget) {
      subs.emplace_back();
      sub_transient = 0;
    }
    sub_transient += tl;
    subs.back().push_back(std::move(t));
  }
  execute_group(subs, place(subs));
}

std::vector<std::size_t> Server::place(
    const std::vector<std::vector<detail::Ticket>>& subs) const {
  // A homed sub-batch runs on the memory holding its resident operands. Any
  // other runs on the memory with the fewest modeled pipelined cycles in
  // this server's ledger, ties to the lowest index. Each assignment is
  // charged at once -- its layers at the lanes' mean cycles per layer -- so
  // the sub-batches of one group spread out instead of all chasing the same
  // minimum; homed ones are charged too, their load is just as real.
  if (pool_->size() == 1) return std::vector<std::size_t>(subs.size(), 0);
  std::vector<std::uint64_t> load;
  std::uint64_t total_cycles = 0, total_layers = 0;
  for (const MemoryLaneStats& lane : ledger_.lanes()) {
    load.push_back(lane.modeled_pipelined_cycles);
    total_cycles += lane.modeled_pipelined_cycles;
    total_layers += lane.layers;
  }
  const std::uint64_t cycles_per_layer =
      total_layers == 0 ? 1 : std::max<std::uint64_t>(1, total_cycles / total_layers);
  std::vector<std::size_t> where;
  where.reserve(subs.size());
  for (const auto& sub : subs) {
    const std::size_t m =
        sub.front().home ? *sub.front().home
                         : static_cast<std::size_t>(
                               std::min_element(load.begin(), load.end()) - load.begin());
    std::uint64_t layers = 0;
    for (const auto& t : sub) layers += t.layers;
    load[m] += std::max<std::uint64_t>(1, layers * cycles_per_layer);
    where.push_back(m);
  }
  return where;
}

void Server::execute_group(std::vector<std::vector<detail::Ticket>>& subs,
                           const std::vector<std::size_t>& where) {
  // Runs one sub-batch end to end -- engine call, accounting, promises --
  // so a lane releases its clients the moment it finishes instead of
  // waiting out the group's slowest lane, and the recorded host latency is
  // exactly what the client waited. A fused Forward is a sub-batch of one;
  // only its engine call and promise type differ. The ledger is
  // mutex-guarded, so lanes may complete concurrently. Never throws.
  const auto run_sub = [&](std::size_t i) {
    auto& batch = subs[i];
    const std::size_t mem = where[i];
    engine::ExecutionEngine& eng = pool_->engine(mem);
    const detail::Ticket& head = batch.front();
    const auto started = Clock::now();
    BPIM_TRACE_SPAN(lane_span, head.kind == detail::ReqKind::Op ? "serve.batch" : "serve.fused",
                    lane_tracks_[mem]);
    if (BPIM_TRACE_ON()) {
      // Arrow heads from every rider's submit span into this batch.
      auto& trace = obs::TraceSession::global();
      for (const auto& t : batch) trace.flow_finish("req", trace_id(t.seq), lane_tracks_[mem]);
    }
    std::vector<OpResult> results;
    try {
      if (head.kind == detail::ReqKind::Forward) {
        results = eng.run_forward(head.fwd_weights, head.a);
      } else {
        std::vector<VecOp> ops;
        ops.reserve(batch.size());
        for (const auto& t : batch) ops.push_back(t.op);
        results = eng.run_batch(ops);
      }
    } catch (...) {
      // Validation happens at submit, so this is a defect; surface it on
      // every rider's future rather than killing the scheduler. Ledger
      // before promises, as on success.
      const std::exception_ptr err = std::current_exception();
      ledger_.on_failed(batch.size());
      for (auto& t : batch) {
        trace_request_dropped(trace_id(t.seq), "error");
        t.fail(err);
      }
      return;
    }
    const engine::BatchStats bs = eng.last_batch();
    const auto done = Clock::now();

    BatchRecord rec{.kind = head.op.kind,
                    .bits = head.op.bits,
                    .ops = batch.size(),
                    .layers = 0,
                    .memory = mem,
                    .pipelined_cycles = bs.pipelined_cycles,
                    .serial_cycles = bs.serial_cycles};
    std::vector<double> host_us;
    std::vector<std::size_t> op_layers;
    host_us.reserve(batch.size());
    op_layers.reserve(batch.size());
    for (const auto& t : batch) {
      host_us.push_back(
          std::chrono::duration<double, std::micro>(done - t.submit_time).count());
      op_layers.push_back(t.layers);
      rec.layers += t.layers;
    }
    // Ledger before promises: a client that wakes on its future and asks for
    // stats() must already see its own batch.
    ledger_.on_batch(rec, bs, host_us, op_layers);

    lane_span.arg("ops", static_cast<double>(rec.ops));
    lane_span.arg("memory", static_cast<double>(rec.memory));
    lane_span.arg("pipelined_cycles", static_cast<double>(bs.pipelined_cycles));
    lane_span.arg("load_cycles_saved", static_cast<double>(bs.load_cycles_saved));
    lane_span.arg("fused_cycles_saved", static_cast<double>(bs.fused_cycles_saved));
    if (BPIM_TRACE_ON()) {
      // Settle each rider's request bar with its waiting/served breakdown:
      // queue_us up to dispatch, host_us end to end, batch_share its
      // layer-weighted slice of the batch cost.
      auto& trace = obs::TraceSession::global();
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const double queue_us = std::chrono::duration<double, std::micro>(
                                    started - batch[k].submit_time)
                                    .count();
        const double share = rec.layers > 0 ? static_cast<double>(op_layers[k]) /
                                                  static_cast<double>(rec.layers)
                                            : 1.0 / static_cast<double>(rec.ops);
        trace.async_end("request", trace_id(batch[k].seq),
                        obs::EventArgs{{"queue_us", queue_us},
                                       {"host_us", host_us[k]},
                                       {"batch_share", share}});
      }
    }

    if (head.kind == detail::ReqKind::Forward) {
      batch.front().fwd_promise.set_value(std::move(results));
      return;
    }
    for (std::size_t k = 0; k < batch.size(); ++k)
      batch[k].promise.set_value(std::move(results[k]));
  };

  // Distinct memories run concurrently on the persistent lane workers;
  // sub-batches that share a memory (one home, or more sub-batches than
  // memories) stay serialized inside one lane, since an engine admits only
  // one run_batch at a time.
  std::vector<std::vector<std::size_t>> by_memory(pool_->size());
  for (std::size_t i = 0; i < subs.size(); ++i) by_memory[where[i]].push_back(i);
  std::erase_if(by_memory, [](const std::vector<std::size_t>& lane) { return lane.empty(); });
  lane_pool_.parallel_for(by_memory.size(), [&](std::size_t l) {
    for (const std::size_t i : by_memory[l]) run_sub(i);
  });
}

}  // namespace bpim::serve
