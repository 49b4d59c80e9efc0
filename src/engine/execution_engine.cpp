#include "engine/execution_engine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/require.hpp"
#include "macro/isa.hpp"

namespace bpim::engine {

using array::RowRef;

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::Add:
      return "ADD";
    case OpKind::Sub:
      return "SUB";
    case OpKind::Mult:
      return "MULT";
    case OpKind::AddShift:
      return "ADD-SHIFT";
    case OpKind::Not:
      return "NOT";
    case OpKind::Logic:
      return "LOGIC";
  }
  return "?";
}

namespace {

// More workers than macros can never help: the macro is the unit of
// parallelism, so cap the pool and spare the surplus threads the wake-up
// on every op.
std::size_t useful_threads(const EngineConfig& cfg, const macro::ImcMemory& mem) {
  std::size_t t = cfg.threads != 0 ? cfg.threads
                                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(t, mem.macro_count());
}

}  // namespace

ExecutionEngine::ExecutionEngine(macro::ImcMemory& mem, EngineConfig cfg)
    : mem_(mem),
      pool_(useful_threads(cfg, mem)),
      residency_(mem.macro(0).rows() / 2),
      op_compiler_(mem.macro(0).config().geometry) {
#if BPIM_OBS_ENABLED
  static std::atomic<std::uint64_t> instance_counter{0};
  trace_track_ = obs::TraceSession::global().register_track(
      "engine " + std::to_string(instance_counter.fetch_add(1, std::memory_order_relaxed)));
#endif
}

std::size_t ExecutionEngine::words_per_row(unsigned bits) const {
  return mem_.macro(0).words_per_row(bits);
}

std::size_t ExecutionEngine::mult_units_per_row(unsigned bits) const {
  return mem_.macro(0).mult_units_per_row(bits);
}

namespace {

OperandLayout layout_of(OpKind kind) {
  return kind == OpKind::Mult ? OperandLayout::MultUnit : OperandLayout::Word;
}

}  // namespace

std::size_t ExecutionEngine::elements_per_chunk(const VecOp& op) const {
  return elements_per_chunk(op.bits, layout_of(op.kind));
}

std::size_t ExecutionEngine::elements_per_chunk(unsigned bits, OperandLayout layout) const {
  return layout == OperandLayout::MultUnit ? mult_units_per_row(bits) : words_per_row(bits);
}

std::size_t ExecutionEngine::layers_for_elements(std::size_t elements, unsigned bits,
                                                 OperandLayout layout) const {
  const std::size_t per_op = elements_per_chunk(bits, layout);
  const std::size_t chunks = (elements + per_op - 1) / per_op;
  return (chunks + mem_.macro_count() - 1) / mem_.macro_count();
}

std::size_t ExecutionEngine::layer_capacity(unsigned bits) const {
  return words_per_row(bits) * mem_.macro_count();
}

std::size_t ExecutionEngine::layers_for(const VecOp& op) const {
  return layers_for_elements(op.length(), op.bits, layout_of(op.kind));
}

std::size_t ExecutionEngine::row_pair_capacity() const { return mem_.macro(0).rows() / 2; }

ResidentOperand ExecutionEngine::pin(std::span<const std::uint64_t> values, unsigned bits,
                                     OperandLayout layout) {
  BPIM_REQUIRE(macro::is_supported_precision(bits), "unsupported precision");
  for (const std::uint64_t v : values)
    BPIM_REQUIRE(BitVector::fits_u64(v, bits), "value does not fit precision");
  return residency_.pin(values, bits, layout,
                        layers_for_elements(values.size(), bits, layout));
}

bool ExecutionEngine::unpin(const ResidentOperand& handle) {
  return handle ? residency_.unpin(handle.id) : false;
}

void ExecutionEngine::materialize(ResidencyManager::Entry& entry) {
  BPIM_TRACE_INSTANT("residency.materialize", trace_track_,
                     {{"handle", static_cast<double>(entry.handle.id)},
                      {"layers", static_cast<double>(entry.handle.layers)}});
  const unsigned bits = entry.handle.bits;
  const bool mult_layout = entry.handle.layout == OperandLayout::MultUnit;
  const std::size_t per_op = elements_per_chunk(bits, entry.handle.layout);
  const std::size_t macros = mem_.macro_count();
  const std::size_t n = entry.values.size();
  const std::size_t chunks = (n + per_op - 1) / per_op;
  const std::span<const std::uint64_t> values(entry.values);
  for (std::size_t c = 0; c < chunks; ++c) {
    auto& mac = mem_.macro(c % macros);
    const std::size_t row = 2 * (entry.base_pair + c / macros);
    const std::size_t pos = c * per_op;
    const std::size_t len = std::min(per_op, n - pos);
    if (mult_layout) {
      mac.poke_mult_operands(row, 0, bits, values.subspan(pos, len));
    } else {
      mac.poke_words(row, 0, bits, values.subspan(pos, len));
    }
  }
}

const macro::VerifiedProgram& ExecutionEngine::program_for(const VecOp& op, std::size_t r_a,
                                                           std::size_t r_b) {
  const RowRef a = RowRef::main(r_a);
  const RowRef b = RowRef::main(r_b);
  switch (op.kind) {
    case OpKind::Add:
      return op_compiler_.add(a, b, op.bits);
    case OpKind::Sub:
      return op_compiler_.sub(a, b, op.bits);
    case OpKind::Mult:
      return op_compiler_.mult(a, b, op.bits);
    case OpKind::AddShift:
      // The shifted sum retires into the dummy accumulator: the driven-out
      // row carries the value and no main row is written.
      return op_compiler_.add_shift(a, b, op.bits,
                                    RowRef::dummy(macro::ImcMacro::kDummyAccum));
    case OpKind::Not:
      // Unary: the inverted row lands in the dummy operand row and is
      // driven out; side b never exists.
      return op_compiler_.unary(macro::Op::Not, a,
                                RowRef::dummy(macro::ImcMacro::kDummyOperand), op.bits);
    case OpKind::Logic:
      break;
  }
  return op_compiler_.logic(op.fn, a, b);
}

OpResult ExecutionEngine::run_one(const VecOp& op, OpAccount& acct) {
  const bool mult_layout = op.kind == OpKind::Mult;
  const bool unary = op.kind == OpKind::Not;
  const OperandLayout want = mult_layout ? OperandLayout::MultUnit : OperandLayout::Word;

  // Resolve each side to a data span plus (for handles) the live entry.
  const auto resolve = [&](std::span<const std::uint64_t> s, const ResidentOperand& h)
      -> std::pair<std::span<const std::uint64_t>, ResidencyManager::Entry*> {
    if (!h) return {s, nullptr};
    BPIM_REQUIRE(s.empty(), "operand side has both a span and a resident handle");
    ResidencyManager::Entry* e = residency_.touch(h.id);
    BPIM_REQUIRE(e != nullptr, "unknown resident operand (unpinned, or pinned on another engine)");
    BPIM_REQUIRE(e->handle.bits == op.bits, "resident operand precision mismatch");
    BPIM_REQUIRE(e->handle.layout == want, "resident operand layout does not fit the op kind");
    return {std::span<const std::uint64_t>(e->values), e};
  };
  const auto [a, ea] = resolve(op.a, op.ra);
  const auto [b, eb] = resolve(op.b, op.rb);
  if (unary)
    BPIM_REQUIRE(b.empty() && eb == nullptr, "NOT is unary: operand side b must stay empty");
  else
    BPIM_REQUIRE(a.size() == b.size(), "operand vectors must have equal length");
  BPIM_REQUIRE(macro::is_supported_precision(op.bits), "unsupported precision");
  BPIM_REQUIRE(ea == nullptr || ea != eb, "a resident operand cannot be both sides of one op");
  // Two handles must fit the array together -- each side passed the
  // per-handle bound at pin(), but their pair sum is only known here.
  if (ea != nullptr && eb != nullptr)
    BPIM_REQUIRE(ea->handle.layers + eb->handle.layers <= row_pair_capacity(),
                 "resident operand pair exceeds memory capacity");
  mem_.reset_counters();

  const std::size_t n = a.size();
  const std::size_t per_op = elements_per_chunk(op);
  const std::size_t macros = mem_.macro_count();
  const std::size_t chunks = (n + per_op - 1) / per_op;
  // Single source of truth with the serve scheduler's residency budget.
  const std::size_t layers = layers_for(op);
  if (layers > 0)
    BPIM_REQUIRE(2 * (layers - 1) + 1 < mem_.macro(0).rows(), "vector exceeds memory capacity");

  // Row residency: a fully-transient op stages in pairs [0, layers) exactly
  // as before; an op with a resident side computes in the handle's own
  // pairs (activation in the odd row) and consumes no transient pairs.
  // Eviction (LRU) happens here when the pinned set and the transient
  // region collide, and evicted handles re-materialize on use.
  const std::uint64_t rows_per_layer = unary ? 1 : 2;  // staged operand rows
  const std::size_t transient = (ea != nullptr || eb != nullptr) ? 0 : layers;
  if (transient > 0) residency_.reserve_transient(transient);
  std::uint64_t load = transient > 0 ? rows_per_layer * layers : 0;
  if (ea != nullptr && residency_.ensure_rows(*ea, eb)) {
    materialize(*ea);
    load += layers;  // the one materializing write, charged to this batch
  }
  if (eb != nullptr && residency_.ensure_rows(*eb, ea)) {
    materialize(*eb);
    load += layers;
  }
  if (!unary && (ea != nullptr) != (eb != nullptr)) load += layers;  // the activation side

  OpResult res;
  res.values.assign(n, 0);

  // Row placement by layer -- identical for every macro of the layer, so
  // the whole op dispatches through `layers` cached programs.
  const std::size_t base_a = ea != nullptr ? ea->base_pair : 0;
  const std::size_t base_b = eb != nullptr ? eb->base_pair : 0;
  const ResidencyManager::Entry* res_a = ea;
  const ResidencyManager::Entry* res_b = eb;
  const auto place = [&](std::size_t row_pair) -> std::pair<std::size_t, std::size_t> {
    if (res_a == nullptr && res_b == nullptr) return {2 * row_pair, 2 * row_pair + 1};
    if (res_a != nullptr && res_b != nullptr)
      return {2 * (base_a + row_pair), 2 * (base_b + row_pair)};
    if (res_a != nullptr) {
      const std::size_t r = 2 * (base_a + row_pair);
      return {r, r + 1};
    }
    const std::size_t r = 2 * (base_b + row_pair);
    return {r + 1, r};
  };

  // Compile (or fetch) the per-layer single-op programs up front, on the
  // submitting thread: workers share the verified programs by reference
  // and never touch the compiler cache.
  std::vector<const macro::VerifiedProgram*> progs;
  progs.reserve(layers);
  for (std::size_t rp = 0; rp < layers; ++rp) {
    const auto [pr_a, pr_b] = place(rp);
    progs.push_back(&program_for(op, pr_a, pr_b));
  }

  // Shard: macro m owns chunks m, m + M, m + 2M, ... -- the same per-macro
  // chunk sequence as the serial layer walk, so RNG streams and ledgers
  // advance identically and any thread count gives bit-identical results.
  // The macro ledgers are the op's account; each worker only keeps the
  // adaptive savings its controller reports.
  const std::span<const std::uint64_t> av = a;
  const std::span<const std::uint64_t> bv = b;
  const macro::AdaptivePolicy pol = adaptive_policy();
  std::vector<std::uint64_t> adaptive_m(macros, 0);
  pool_.parallel_for(std::min(chunks, macros), [&](std::size_t m) {
    auto& mac = mem_.macro(m);
    macro::MacroController ctl(mac);
    std::vector<macro::TraceEntry> trace;
    for (std::size_t c = m; c < chunks; c += macros) {
      const std::size_t row_pair = c / macros;
      const auto [r_a, r_b] = place(row_pair);
      const std::size_t pos = c * per_op;
      const std::size_t len = std::min(per_op, n - pos);
      if (mult_layout) {
        if (res_a == nullptr) mac.poke_mult_operands(r_a, 0, op.bits, av.subspan(pos, len));
        if (res_b == nullptr) mac.poke_mult_operands(r_b, 0, op.bits, bv.subspan(pos, len));
      } else {
        if (res_a == nullptr) mac.poke_words(r_a, 0, op.bits, av.subspan(pos, len));
        if (!unary && res_b == nullptr) mac.poke_words(r_b, 0, op.bits, bv.subspan(pos, len));
      }
      trace.clear();
      adaptive_m[m] +=
          ctl.run(*progs[row_pair], &trace, /*fuse_mac_chains=*/false, pol).adaptive_cycles_saved;
      const BitVector& result = trace.back().result;
      if (mult_layout) {
        mac.peek_mult_products(result, op.bits, std::span(res.values).subspan(pos, len));
      } else {
        for (std::size_t i = 0; i < len; ++i)
          res.values[pos + i] = result.extract_bits(i * op.bits, op.bits);
      }
    }
  });

  // The memory ledger (counters reset above, pokes uncharged) is the op's
  // account: cycles are the lock-step max across macros, energy the fixed
  // bank-then-macro sum. Each chunk ran one single-instruction program.
  res.stats.elements = n;
  res.stats.instructions = chunks;
  res.stats.elapsed_cycles = mem_.elapsed_cycles();
  res.stats.adaptive_cycles_saved = dense_elapsed(adaptive_m) - res.stats.elapsed_cycles;
  res.stats.energy = mem_.total_energy();
  res.stats.elapsed_time =
      Second(static_cast<double>(res.stats.elapsed_cycles) * mem_.macro(0).cycle_time().si());

  // Operand load in the cycle model: one staged row = one lock-step
  // row-write cycle per layer (pokes carry no cycle cost in the seed
  // semantics; this feeds only the batch double-buffering account).
  // Resident sides load nothing beyond their one materializing write.
  acct.load_cycles = load;
  acct.saved_cycles = rows_per_layer * layers - load;
  acct.layers = layers;
  acct.transient_layers = transient;
  acct.handle_a = op.ra.id;
  acct.handle_b = op.rb.id;
  if (acct.saved_cycles > 0) residency_.note_saved(acct.saved_cycles);
  res.stats.load_cycles = acct.load_cycles;
  res.stats.load_cycles_saved = acct.saved_cycles;
  return res;
}

std::uint64_t ExecutionEngine::dense_elapsed(std::span<const std::uint64_t> adaptive_m) {
  // Per macro, ledger cycles plus the adaptive savings of its programs is
  // its policy-off walk under the same fusion pattern (per-instruction
  // conservation is exact), so the max over macros is the policy-off
  // makespan and dense == elapsed + adaptive_cycles_saved holds exactly.
  std::uint64_t dense = 0;
  for (std::size_t m = 0; m < adaptive_m.size(); ++m)
    dense = std::max(dense, mem_.macro(m).total_cycles() + adaptive_m[m]);
  return dense;
}

OpResult ExecutionEngine::run(const VecOp& op) {
  return run_batch(std::span<const VecOp>(&op, 1)).front();
}

std::vector<OpResult> ExecutionEngine::run_batch(std::span<const VecOp> ops) {
  if (ops.empty()) {
    // An empty batch never touches the pool or the memory's counters.
    batch_ = BatchStats{};
    return {};
  }
  BPIM_TRACE_SPAN(span, "engine.run_batch", trace_track_);

  std::vector<OpResult> results;
  results.reserve(ops.size());

  batch_ = BatchStats{};
  batch_.ops = ops.size();
  const std::size_t total_row_pairs = mem_.macro(0).rows() / 2;
  std::uint64_t prev_compute = 0;
  OpAccount prev{};
  for (std::size_t k = 0; k < ops.size(); ++k) {
    OpAccount acct;
    results.push_back(run_one(ops[k], acct));
    const RunStats& s = results.back().stats;
    batch_.elements += s.elements;
    batch_.instructions += s.instructions;
    batch_.load_cycles += acct.load_cycles;
    batch_.load_cycles_saved += acct.saved_cycles;
    batch_.compute_cycles += s.elapsed_cycles;
    batch_.adaptive_cycles_saved += s.adaptive_cycles_saved;
    batch_.energy += s.energy;
    // Double-buffered schedule: op k's load hides behind op k-1's compute --
    // but only when both ops fit in the array at once (their transient
    // regions plus the materialized pinned set), since the ping-pong load
    // needs row pairs that op k-1 is not still computing on. Two ops on
    // the same resident handle can never overlap: op k's activation write
    // targets the very pair op k-1 is computing on.
    const bool shares_handle =
        (acct.handle_a != 0 &&
         (acct.handle_a == prev.handle_a || acct.handle_a == prev.handle_b)) ||
        (acct.handle_b != 0 &&
         (acct.handle_b == prev.handle_a || acct.handle_b == prev.handle_b));
    const bool fits = prev.transient_layers + acct.transient_layers +
                          residency_.resident_layers() <=
                      total_row_pairs;
    const bool can_overlap = k > 0 && fits && !shares_handle;
    // prev_compute is 0 at k == 0, so the no-overlap arm also covers "the
    // first load has nothing to hide behind".
    batch_.pipelined_cycles += can_overlap ? std::max(prev_compute, acct.load_cycles)
                                           : prev_compute + acct.load_cycles;
    prev_compute = s.elapsed_cycles;
    prev = acct;
  }
  batch_.pipelined_cycles += prev_compute;  // last compute has nothing to hide behind
  batch_.serial_cycles = batch_.load_cycles + batch_.compute_cycles;
  batch_.elapsed_time = Second(static_cast<double>(batch_.pipelined_cycles) *
                               mem_.macro(0).cycle_time().si());
  span.arg("ops", static_cast<double>(batch_.ops));
  span.arg("pipelined_cycles", static_cast<double>(batch_.pipelined_cycles));
  span.arg("load_cycles_saved", static_cast<double>(batch_.load_cycles_saved));
  return results;
}

// ---- fusion (run_forward / compile_forward / run_chain) ---------------------

std::vector<macro::PinnedRows> ExecutionEngine::pinned_rows() const {
  std::vector<macro::PinnedRows> out;
  for (const auto& [base, layers] : residency_.materialized_intervals())
    out.push_back(macro::PinnedRows{2 * base, 2 * layers});
  return out;
}

ExecutionEngine::ForwardPlan ExecutionEngine::prepare_forward(
    std::span<const ResidentOperand> weights) {
  BPIM_REQUIRE(!weights.empty(), "fused forward needs at least one weight");
  ForwardPlan plan;
  plan.bits = weights.front().bits;
  plan.entries.reserve(weights.size());
  for (const ResidentOperand& w : weights) {
    BPIM_REQUIRE(static_cast<bool>(w), "fused forward weight has no handle");
    ResidencyManager::Entry* e = residency_.touch(w.id);
    BPIM_REQUIRE(e != nullptr,
                 "unknown resident operand (unpinned, or pinned on another engine)");
    BPIM_REQUIRE(e->handle.bits == plan.bits, "fused forward weights must share one precision");
    BPIM_REQUIRE(e->handle.layout == OperandLayout::MultUnit,
                 "fused forward weights must be pinned in MULT-unit layout");
    BPIM_REQUIRE(e->handle.elements == weights.front().elements,
                 "fused forward weights must share one length");
    plan.entries.push_back(e);
  }
  plan.elements = static_cast<std::size_t>(weights.front().elements);
  plan.per_op = mult_units_per_row(plan.bits);
  plan.chunks = (plan.elements + plan.per_op - 1) / plan.per_op;
  plan.layers = layers_for_elements(plan.elements, plan.bits, OperandLayout::MultUnit);
  plan.loaded.assign(weights.size(), 0);

  // The fused layout needs the activation region plus every weight resident
  // at once; op-at-a-time dispatch has no such requirement, so an oversized
  // shape simply stays unfusable and run_forward falls back.
  if ((weights.size() + 1) * plan.layers > row_pair_capacity()) return plan;

  residency_.reserve_transient(plan.layers);
  for (std::size_t j = 0; j < plan.entries.size(); ++j) {
    if (residency_.ensure_rows(*plan.entries[j])) {
      materialize(*plan.entries[j]);
      plan.load_cycles += plan.layers;
      plan.loaded[j] = 1;
    }
  }
  // Fragmentation -- or a sibling evicted while materializing a later
  // weight -- can still break the layout; check before committing to it.
  for (const ResidencyManager::Entry* e : plan.entries)
    if (!e->materialized || e->base_pair < plan.layers) return plan;
  plan.fusable = true;
  return plan;
}

FusedForward& ExecutionEngine::fused_program_for(const ForwardPlan& plan) {
  // FNV-1a over the handle ids; a (vanishingly rare) colliding id list just
  // recompiles every call, it can never run the wrong program.
  std::uint64_t key = 1469598103934665603ull;
  for (const ResidencyManager::Entry* e : plan.entries) {
    key ^= e->handle.id;
    key *= 1099511628211ull;
  }
  FusedForward& ff = fused_[key];
  const auto fresh = [&] {
    if (ff.programs.empty() || ff.bits != plan.bits || ff.elements != plan.elements ||
        ff.layers != plan.layers || ff.ids.size() != plan.entries.size())
      return false;
    for (std::size_t j = 0; j < plan.entries.size(); ++j)
      if (ff.ids[j] != plan.entries[j]->handle.id ||
          ff.base_pairs[j] != plan.entries[j]->base_pair)
        return false;
    return true;
  };
  if (fresh()) return ff;
  const bool rebuild = !ff.programs.empty();
  BPIM_TRACE_INSTANT(rebuild ? "fusion.recompile" : "fusion.compile", trace_track_,
                     {{"weights", static_cast<double>(plan.entries.size())},
                      {"layers", static_cast<double>(plan.layers)}});

  const std::size_t macros = mem_.macro_count();
  const std::size_t active = std::min(plan.chunks, macros);
  const macro::FusionCompiler compiler(mem_.macro(0).config().geometry, pinned_rows());
  FusedForward next;
  next.bits = plan.bits;
  next.elements = plan.elements;
  next.layers = plan.layers;
  for (const ResidencyManager::Entry* e : plan.entries) {
    next.ids.push_back(e->handle.id);
    next.base_pairs.push_back(e->base_pair);
  }
  next.programs.reserve(active);
  for (std::size_t m = 0; m < active; ++m) {
    // Macro m owns chunks m, m + M, ... (the run_one shard); its program
    // walks them layer-major with the op loop inside, so every MULT of a
    // layer shares the staged activation row and the chained datapath's
    // D1-staging discount applies to all but the first.
    const std::size_t layers_m = (plan.chunks - m - 1) / macros + 1;
    macro::MacForwardSpec spec;
    spec.bits = plan.bits;
    for (std::size_t l = 0; l < layers_m; ++l)
      for (const ResidencyManager::Entry* e : plan.entries)
        spec.steps.push_back(macro::MacStep{2 * l, 2 * (e->base_pair + l)});
    next.programs.push_back(compiler.compile_mac_forward(spec));
  }
  ff = std::move(next);
  if (rebuild)
    ++fusion_stats_.recompiles;
  else
    ++fusion_stats_.compiles;
  return ff;
}

bool ExecutionEngine::compile_forward(std::span<const ResidentOperand> weights) {
  ForwardPlan plan = prepare_forward(weights);
  if (!plan.fusable) return false;
  (void)fused_program_for(plan);
  pending_load_ += plan.load_cycles;
  return true;
}

std::vector<OpResult> ExecutionEngine::run_forward(std::span<const ResidentOperand> weights,
                                                   std::span<const std::uint64_t> activation) {
  BPIM_TRACE_SPAN(span, "engine.run_forward", trace_track_);
  ForwardPlan plan = prepare_forward(weights);
  BPIM_REQUIRE(activation.size() == plan.elements,
               "activation length must match the pinned weights");
  if (!plan.fusable) {
    ++fusion_stats_.fallback_runs;
    BPIM_TRACE_INSTANT("fusion.fallback", trace_track_,
                       {{"weights", static_cast<double>(weights.size())}});
    std::vector<VecOp> ops(weights.size());
    for (std::size_t j = 0; j < weights.size(); ++j) {
      ops[j].kind = OpKind::Mult;
      ops[j].bits = plan.bits;
      ops[j].ra = weights[j];
      ops[j].b = activation;
    }
    std::vector<OpResult> out = run_batch(ops);
    // Weights prepare_forward already materialized load nothing inside
    // run_batch; keep their writes on this batch's account.
    batch_.load_cycles += plan.load_cycles;
    batch_.serial_cycles += plan.load_cycles;
    batch_.pipelined_cycles += plan.load_cycles;
    return out;
  }

  FusedForward& ff = fused_program_for(plan);
  const std::size_t ops = weights.size();
  const std::size_t macros = mem_.macro_count();
  const std::size_t active = std::min(plan.chunks, macros);
  mem_.reset_counters();

  // Stage the shared activation (even row of transient pair l for chunk
  // c = l*M + m) and run each macro's fused program on the chained datapath.
  // Per-macro programs and RNG streams are independent, so the parallel walk
  // stays bit-identical to a serial one.
  const macro::AdaptivePolicy pol = adaptive_policy();
  std::vector<std::vector<macro::TraceEntry>> traces(active);
  std::vector<std::uint64_t> adaptive_m(active, 0);
  pool_.parallel_for(active, [&](std::size_t m) {
    auto& mac = mem_.macro(m);
    for (std::size_t c = m; c < plan.chunks; c += macros) {
      const std::size_t pos = c * plan.per_op;
      const std::size_t len = std::min(plan.per_op, plan.elements - pos);
      mac.poke_mult_operands(2 * (c / macros), 0, plan.bits, activation.subspan(pos, len));
    }
    macro::MacroController ctl(mac);
    traces[m].reserve(ff.programs[m].size());
    adaptive_m[m] =
        ctl.run(ff.programs[m], &traces[m], /*fuse_mac_chains=*/true, pol).adaptive_cycles_saved;
  });

  // Extraction: macro m's trace entry l*J + j is layer l of op j, covering
  // elements of chunk c = l*M + m.
  std::vector<OpResult> results(ops);
  for (OpResult& r : results) r.values.assign(plan.elements, 0);
  for (std::size_t m = 0; m < active; ++m) {
    auto& mac = mem_.macro(m);
    const std::size_t layers_m = traces[m].size() / ops;
    for (std::size_t l = 0; l < layers_m; ++l) {
      const std::size_t pos = (l * macros + m) * plan.per_op;
      const std::size_t len = std::min(plan.per_op, plan.elements - pos);
      for (std::size_t j = 0; j < ops; ++j) {
        mac.peek_mult_products(traces[m][l * ops + j].result, plan.bits,
                               std::span(results[j].values).subspan(pos, len));
      }
    }
  }

  // Per-op accounting: cycles from macro 0 (the max-layer macro; instruction
  // costs match across macros, so its walk is the lock-step critical path
  // and the per-op shares sum to mem_.elapsed_cycles()); energy merged in
  // fixed macro-then-layer order. Load: the activation (plus any weights
  // compile_forward staged early) bills to op 0, a weight materialized this
  // call bills to its own op; the baseline is 2 row writes per layer per op.
  const double tick = mem_.macro(0).cycle_time().si();
  const std::uint64_t table_mult = macro::op_cycles(macro::Op::Mult, plan.bits);
  const std::uint64_t pending = pending_load_;
  pending_load_ = 0;
  const std::size_t layers0 = traces[0].size() / ops;
  std::uint64_t saved_total = 0;
  std::uint64_t fused_saved_total = 0;
  for (std::size_t j = 0; j < ops; ++j) {
    RunStats& s = results[j].stats;
    s.elements = plan.elements;
    for (std::size_t l = 0; l < layers0; ++l) {
      s.elapsed_cycles += traces[0][l * ops + j].cycles;
      s.adaptive_cycles_saved += traces[0][l * ops + j].adaptive_cycles_saved;
    }
    for (std::size_t m = 0; m < active; ++m) {
      const std::size_t layers_m = traces[m].size() / ops;
      s.instructions += layers_m;  // one MULT per layer per macro
      for (std::size_t l = 0; l < layers_m; ++l) s.energy += traces[m][l * ops + j].op_energy;
    }
    s.elapsed_time = Second(static_cast<double>(s.elapsed_cycles) * tick);
    // Per-instruction conservation splits each MULT's Table 1 cost three
    // ways exactly: executed + fused discount + adaptive discount.
    s.fused_cycles_saved = table_mult * layers0 - s.elapsed_cycles - s.adaptive_cycles_saved;
    fused_saved_total += s.fused_cycles_saved;
    s.load_cycles = (plan.loaded[j] ? plan.layers : 0) +
                    (j == 0 ? plan.layers + pending : 0);
    const std::uint64_t baseline = 2 * plan.layers;
    s.load_cycles_saved = s.load_cycles >= baseline ? 0 : baseline - s.load_cycles;
    saved_total += s.load_cycles_saved;
  }
  if (saved_total > 0) residency_.note_saved(saved_total);

  batch_ = BatchStats{};
  batch_.ops = ops;
  batch_.elements = static_cast<std::uint64_t>(ops) * plan.elements;
  for (const OpResult& r : results) batch_.instructions += r.stats.instructions;
  batch_.load_cycles = plan.load_cycles + pending + plan.layers;
  batch_.load_cycles_saved = saved_total;
  batch_.compute_cycles = mem_.elapsed_cycles();
  batch_.serial_cycles = batch_.load_cycles + batch_.compute_cycles;
  // One fused program: there is no op boundary left to ping-pong loads
  // across, and nothing to hide the single activation load behind.
  batch_.pipelined_cycles = batch_.serial_cycles;
  batch_.fused_cycles_saved = fused_saved_total;
  batch_.adaptive_cycles_saved = dense_elapsed(adaptive_m) - batch_.compute_cycles;
  batch_.energy = mem_.total_energy();
  batch_.elapsed_time = Second(static_cast<double>(batch_.pipelined_cycles) * tick);
  ++fusion_stats_.fused_runs;
  span.arg("ops", static_cast<double>(ops));
  span.arg("pipelined_cycles", static_cast<double>(batch_.pipelined_cycles));
  span.arg("fused_cycles_saved", static_cast<double>(batch_.fused_cycles_saved));
  return results;
}

OpResult ExecutionEngine::run_chain(const ChainRequest& req) {
  BPIM_TRACE_SPAN(span, "engine.run_chain", trace_track_);
  BPIM_REQUIRE(!req.links.empty(), "a chain needs at least one link");
  BPIM_REQUIRE(macro::is_supported_precision(req.bits), "unsupported precision");
  BPIM_REQUIRE(macro::is_supported_precision(2 * req.bits),
               "chain links run at 2x the head precision, which the ISA lacks here");
  BPIM_REQUIRE(!req.a.empty(), "chain operands must be non-empty");
  BPIM_REQUIRE(req.a.size() == req.b.size(), "operand vectors must have equal length");
  for (const ChainLink& link : req.links)
    BPIM_REQUIRE(link.values.size() == req.a.size(),
                 "link operand length must match the head operands");

  const std::size_t n = req.a.size();
  const std::size_t per_op = mult_units_per_row(req.bits);
  const std::size_t macros = mem_.macro_count();
  const std::size_t chunks = (n + per_op - 1) / per_op;
  const std::size_t layers = (chunks + macros - 1) / macros;
  const std::size_t links = req.links.size();
  // Rows per layer: head operands a + b plus one row per link operand.
  const std::size_t pairs_per_layer = (2 + links + 1) / 2;
  BPIM_REQUIRE(pairs_per_layer * layers <= row_pair_capacity(), "chain exceeds memory capacity");
  residency_.reserve_transient(pairs_per_layer * layers);

  const std::size_t active = std::min(chunks, macros);
  const macro::FusionCompiler compiler(mem_.macro(0).config().geometry, pinned_rows());
  std::vector<macro::VerifiedProgram> programs;
  programs.reserve(active);
  for (std::size_t m = 0; m < active; ++m) {
    const std::size_t layers_m = (chunks - m - 1) / macros + 1;
    macro::ChainSpec spec;
    spec.bits = req.bits;
    for (std::size_t l = 0; l < layers_m; ++l) {
      macro::ChainLayerSpec layer;
      layer.a_row = 2 * pairs_per_layer * l;
      layer.b_row = layer.a_row + 1;
      for (std::size_t j = 0; j < links; ++j)
        layer.links.emplace_back(req.links[j].kind, layer.a_row + 2 + j);
      spec.layers.push_back(std::move(layer));
    }
    programs.push_back(compiler.compile_chain(spec));
  }
  mem_.reset_counters();

  const macro::AdaptivePolicy pol = adaptive_policy();
  std::vector<std::vector<macro::TraceEntry>> traces(active);
  std::vector<std::uint64_t> adaptive_m(active, 0);
  pool_.parallel_for(active, [&](std::size_t m) {
    auto& mac = mem_.macro(m);
    for (std::size_t c = m; c < chunks; c += macros) {
      const std::size_t base = 2 * pairs_per_layer * (c / macros);
      const std::size_t pos = c * per_op;
      const std::size_t len = std::min(per_op, n - pos);
      mac.poke_mult_operands(base, 0, req.bits, req.a.subspan(pos, len));
      mac.poke_mult_operands(base + 1, 0, req.bits, req.b.subspan(pos, len));
      // Link operands are full 2N-bit fields, aligned with the product
      // units (words_per_row(2N) == mult_units_per_row(N)).
      for (std::size_t j = 0; j < links; ++j)
        mac.poke_words(base + 2 + j, 0, 2 * req.bits, req.links[j].values.subspan(pos, len));
    }
    macro::MacroController ctl(mac);
    traces[m].reserve(programs[m].size());
    adaptive_m[m] =
        ctl.run(programs[m], &traces[m], /*fuse_mac_chains=*/true, pol).adaptive_cycles_saved;
  });

  // The last link of each layer block drives the chain's value out.
  OpResult res;
  res.values.assign(n, 0);
  const std::size_t block = 1 + links;
  for (std::size_t m = 0; m < active; ++m) {
    auto& mac = mem_.macro(m);
    const std::size_t layers_m = traces[m].size() / block;
    for (std::size_t l = 0; l < layers_m; ++l) {
      const std::size_t pos = (l * macros + m) * per_op;
      const std::size_t len = std::min(per_op, n - pos);
      mac.peek_mult_products(traces[m][l * block + links].result, req.bits,
                             std::span(res.values).subspan(pos, len));
    }
  }

  // Load account: a, b and each link operand stage once per layer. The
  // op-at-a-time equivalent re-stages the spilled intermediate next to every
  // link operand -- 2 rows per link per layer -- so the chain saves one row
  // write per link per layer.
  const std::uint64_t load = (2 + links) * layers;
  const std::uint64_t saved = links * layers;
  residency_.note_saved(saved);

  const double tick = mem_.macro(0).cycle_time().si();
  res.stats.elements = n;
  for (const auto& t : traces) res.stats.instructions += t.size();
  res.stats.elapsed_cycles = mem_.elapsed_cycles();
  res.stats.energy = mem_.total_energy();
  res.stats.elapsed_time = Second(static_cast<double>(res.stats.elapsed_cycles) * tick);
  res.stats.load_cycles = load;
  res.stats.load_cycles_saved = saved;
  res.stats.adaptive_cycles_saved = dense_elapsed(adaptive_m) - res.stats.elapsed_cycles;

  batch_ = BatchStats{};
  batch_.ops = 1;
  batch_.elements = n;
  batch_.instructions = res.stats.instructions;
  batch_.load_cycles = load;
  batch_.load_cycles_saved = saved;
  batch_.compute_cycles = res.stats.elapsed_cycles;
  batch_.serial_cycles = load + batch_.compute_cycles;
  batch_.pipelined_cycles = batch_.serial_cycles;
  batch_.adaptive_cycles_saved = res.stats.adaptive_cycles_saved;
  batch_.energy = res.stats.energy;
  batch_.elapsed_time = Second(static_cast<double>(batch_.pipelined_cycles) * tick);
  ++fusion_stats_.chain_runs;
  return res;
}

}  // namespace bpim::engine
