#include "engine/execution_engine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

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

/// Visit the chunks of an n-element vector in order: chunk c covers
/// elements [c * per_op, ...) and goes to macro c % M at layer c / M.
template <class Fn>
void for_each_chunk(std::size_t n, std::size_t per_op, std::size_t macros, Fn&& fn) {
  for (std::size_t c = 0, pos = 0; pos < n; ++c, pos += per_op)
    fn(c % macros, c / macros, pos, std::min(per_op, n - pos));
}

void stage_row(macro::ImcMacro& mac, std::size_t row, unsigned bits, OperandLayout layout,
               std::span<const std::uint64_t> src) {
  if (layout == OperandLayout::MultUnit)
    mac.poke_mult_operands(row, 0, bits, src);
  else
    mac.poke_words(row, 0, bits, src);
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
                                     OperandLayout layout, std::optional<std::uint64_t>) {
  BPIM_REQUIRE(macro::is_supported_precision(bits), "unsupported precision");
  for (const std::uint64_t v : values)
    BPIM_REQUIRE(BitVector::fits_u64(v, bits), "value does not fit precision");
  return residency_.pin(values, bits, layout,
                        layers_for_elements(values.size(), bits, layout));
}

bool ExecutionEngine::unpin(const ResidentOperand& handle) {
  return handle ? residency_.unpin(handle.id) : false;
}

std::size_t validate(const VecOp& op, const ExecutionEngine& shape) {
  BPIM_REQUIRE(!op.ra || op.a.empty(), "operand side has both a span and a resident handle");
  BPIM_REQUIRE(!op.rb || op.b.empty(), "operand side has both a span and a resident handle");
  if (op.kind == OpKind::Not)
    BPIM_REQUIRE(op.b.empty() && !op.rb, "NOT is unary: operand side b must stay empty");
  else
    BPIM_REQUIRE((op.ra ? op.ra.elements : op.a.size()) == (op.rb ? op.rb.elements : op.b.size()),
                 "operand vectors must have equal length");
  BPIM_REQUIRE(macro::is_supported_precision(op.bits), "unsupported precision");
  for (const ResidentOperand* h : {&op.ra, &op.rb}) {
    if (!*h) continue;
    BPIM_REQUIRE(h->bits == op.bits, "resident operand precision mismatch");
    BPIM_REQUIRE(h->layout == layout_of(op.kind),
                 "resident operand layout does not fit the op kind");
  }
  BPIM_REQUIRE(!op.ra || op.ra.id != op.rb.id,
               "a resident operand cannot be both sides of one op");
  // Each handle passed the per-handle bound at pin(); their pair sum is
  // only known here.
  BPIM_REQUIRE(!op.ra || !op.rb || op.ra.layers + op.rb.layers <= shape.row_pair_capacity(),
               "resident operand pair exceeds memory capacity");
  const std::size_t layers = shape.layers_for(op);
  BPIM_REQUIRE(layers <= shape.row_pair_capacity(), "vector exceeds memory capacity");
  return layers;
}

std::size_t validate(const ChainRequest& req, const ExecutionEngine& shape) {
  BPIM_REQUIRE(!req.links.empty(), "a chain needs at least one link");
  BPIM_REQUIRE(macro::is_supported_precision(req.bits), "unsupported precision");
  BPIM_REQUIRE(macro::is_supported_precision(2 * req.bits),
               "chain links run at 2x the head precision, which the ISA lacks here");
  BPIM_REQUIRE(!req.a.empty(), "chain operands must be non-empty");
  BPIM_REQUIRE(req.a.size() == req.b.size(), "operand vectors must have equal length");
  for (const ChainLink& link : req.links)
    BPIM_REQUIRE(link.values.size() == req.a.size(),
                 "link operand length must match the head operands");
  // Rows per layer: head operands a + b plus one row per link operand.
  const std::size_t layers = (2 + req.links.size() + 1) / 2 *
                             shape.layers_for_elements(req.a.size(), req.bits,
                                                       OperandLayout::MultUnit);
  BPIM_REQUIRE(layers <= shape.row_pair_capacity(), "chain exceeds memory capacity");
  return layers;
}

std::size_t validate_forward(std::span<const ResidentOperand> weights,
                             std::size_t activation_elements) {
  BPIM_REQUIRE(!weights.empty(), "fused forward needs at least one weight");
  const ResidentOperand& w0 = weights.front();
  for (const ResidentOperand& w : weights) {
    BPIM_REQUIRE(static_cast<bool>(w), "fused forward weight has no handle");
    BPIM_REQUIRE(w.bits == w0.bits, "fused forward weights must share one precision");
    BPIM_REQUIRE(w.layout == OperandLayout::MultUnit,
                 "fused forward weights must be pinned in MULT-unit layout");
    BPIM_REQUIRE(w.elements == w0.elements, "fused forward weights must share one length");
  }
  BPIM_REQUIRE(macro::is_supported_precision(w0.bits), "unsupported precision");
  BPIM_REQUIRE(activation_elements == w0.elements,
               "activation length must match the pinned weights");
  return w0.layers;
}

void ExecutionEngine::materialize(ResidencyManager::Entry& entry) {
  BPIM_TRACE_INSTANT("residency.materialize", trace_track_,
                     {{"handle", static_cast<double>(entry.handle.id)},
                      {"layers", static_cast<double>(entry.handle.layers)}});
  const ResidentOperand& h = entry.handle;
  const std::span<const std::uint64_t> values(entry.values);
  for_each_chunk(values.size(), elements_per_chunk(h.bits, h.layout), mem_.macro_count(),
                 [&](std::size_t m, std::size_t l, std::size_t pos, std::size_t len) {
                   stage_row(mem_.macro(m), 2 * (entry.base_pair + l), h.bits, h.layout,
                             values.subspan(pos, len));
                 });
}

ResidencyManager::Entry* ExecutionEngine::resolve(const ResidentOperand& handle) {
  if (!handle) return nullptr;
  ResidencyManager::Entry* e = residency_.touch(handle.id);
  BPIM_REQUIRE(e != nullptr, "unknown resident operand (unpinned, or pinned on another engine)");
  return e;
}

Second ExecutionEngine::cycles_to_time(std::uint64_t cycles) const {
  return Second(static_cast<double>(cycles) * mem_.macro(0).cycle_time().si());
}

ExecutionEngine::ExecPlan& ExecutionEngine::begin_plan(std::size_t active) {
  plan_.macros.resize(std::max(plan_.macros.size(), active));
  for (std::size_t m = 0; m < active; ++m) {
    MacroPlan& mp = plan_.macros[m];
    mp.stage.clear();
    mp.programs.clear();
    mp.extract.clear();
  }
  plan_.active = active;
  return plan_;
}

std::uint64_t ExecutionEngine::execute(ExecPlan& plan) {
  mem_.reset_counters();
  // Macro m owns its chunks outright (own rows, RNG stream and ledger), so
  // any thread count gives bit-identical results. The memory ledger is the
  // dispatch's account; each worker only keeps the adaptive savings its
  // controller reports. The chained-MAC discount applies only between
  // back-to-back MULTs inside one program, so it leaves single-instruction
  // programs alone.
  const macro::AdaptivePolicy pol = adaptive_policy();
  pool_.parallel_for(plan.active, [&](std::size_t m) {
    auto& mac = mem_.macro(m);
    MacroPlan& mp = plan.macros[m];
    for (const auto& s : mp.stage) stage_row(mac, s.index, s.bits, s.layout, s.values);
    macro::MacroController ctl(mac);
    mp.trace.clear();
    mp.adaptive = 0;
    for (const macro::VerifiedProgram* p : mp.programs)
      mp.adaptive += ctl.run(*p, &mp.trace, /*fuse_mac_chains=*/true, pol).adaptive_cycles_saved;
    for (const auto& x : mp.extract) {
      const BitVector& result = mp.trace[x.index].result;
      if (x.layout == OperandLayout::MultUnit) {
        mac.peek_mult_products(result, x.bits, x.values);
      } else {
        for (std::size_t i = 0; i < x.values.size(); ++i)
          x.values[i] = result.extract_bits(i * x.bits, x.bits);
      }
    }
  });
  // Per macro, ledger cycles plus the adaptive savings of its programs is
  // its policy-off walk under the same fusion pattern (per-instruction
  // conservation is exact), so the max over macros is the policy-off
  // makespan and dense == elapsed + adaptive_cycles_saved holds exactly.
  std::uint64_t dense = 0;
  for (std::size_t m = 0; m < plan.active; ++m)
    dense = std::max(dense, mem_.macro(m).total_cycles() + plan.macros[m].adaptive);
  return dense - mem_.elapsed_cycles();
}

void ExecutionEngine::publish_fused(BatchStats b) {
  b.serial_cycles = b.load_cycles + b.compute_cycles;
  b.pipelined_cycles = b.serial_cycles;
  b.elapsed_time = cycles_to_time(b.pipelined_cycles);
  batch_ = b;
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

OpResult ExecutionEngine::run_one(const VecOp& op) {
  const bool unary = op.kind == OpKind::Not;
  const OperandLayout layout = layout_of(op.kind);
  ResidencyManager::Entry* ea = resolve(op.ra);
  ResidencyManager::Entry* eb = resolve(op.rb);
  const std::span<const std::uint64_t> a = ea != nullptr ? ea->values : op.a;
  const std::span<const std::uint64_t> b = eb != nullptr ? eb->values : op.b;
  const std::size_t n = a.size();
  const std::size_t per_op = elements_per_chunk(op);
  const std::size_t macros = mem_.macro_count();
  const std::size_t chunks = (n + per_op - 1) / per_op;
  const std::size_t layers = layers_for(op);

  // Row residency: a fully-transient op stages in pairs [0, layers); an op
  // with a resident side computes in the handle's own pairs (activation in
  // the odd row) and consumes no transient pairs. Eviction (LRU) happens
  // here when the pinned set and the transient region collide, and evicted
  // handles re-materialize on use.
  const std::uint64_t rows_per_layer = unary ? 1 : 2;  // staged operand rows
  const std::size_t transient = (ea != nullptr || eb != nullptr) ? 0 : layers;
  if (transient > 0) residency_.reserve_transient(transient);
  std::uint64_t load = transient > 0 ? rows_per_layer * layers : 0;
  if (ea != nullptr && residency_.ensure_rows(*ea, 0, eb)) {
    materialize(*ea);
    load += layers;  // the one materializing write, charged to this batch
  }
  if (eb != nullptr && residency_.ensure_rows(*eb, 0, ea)) {
    materialize(*eb);
    load += layers;
  }
  if (!unary && (ea != nullptr) != (eb != nullptr)) load += layers;  // the activation side

  // Row placement by layer -- identical for every macro of the layer, so
  // the whole op dispatches through `layers` cached programs, compiled (or
  // fetched) here on the submitting thread.
  const auto place = [&](std::size_t l) -> std::pair<std::size_t, std::size_t> {
    if (ea != nullptr && eb != nullptr) return {2 * (ea->base_pair + l), 2 * (eb->base_pair + l)};
    if (ea != nullptr) return {2 * (ea->base_pair + l), 2 * (ea->base_pair + l) + 1};
    if (eb != nullptr) return {2 * (eb->base_pair + l) + 1, 2 * (eb->base_pair + l)};
    return {2 * l, 2 * l + 1};
  };
  OpResult res;
  res.values.assign(n, 0);
  ExecPlan& plan = begin_plan(std::min(chunks, macros));
  const macro::VerifiedProgram* prog = nullptr;
  for_each_chunk(n, per_op, macros,
                 [&](std::size_t m, std::size_t l, std::size_t pos, std::size_t len) {
                   const auto [r_a, r_b] = place(l);
                   if (m == 0) prog = &program_for(op, r_a, r_b);
                   MacroPlan& mp = plan.macros[m];
                   if (ea == nullptr)
                     mp.stage.push_back({r_a, op.bits, layout, a.subspan(pos, len)});
                   if (!unary && eb == nullptr)
                     mp.stage.push_back({r_b, op.bits, layout, b.subspan(pos, len)});
                   mp.extract.push_back({mp.programs.size(), op.bits, layout,
                                         std::span(res.values).subspan(pos, len)});
                   mp.programs.push_back(prog);
                 });
  const std::uint64_t adaptive = execute(plan);

  // The memory ledger is the op's account: cycles are the lock-step max
  // across macros, energy the fixed bank-then-macro sum. Each chunk ran one
  // single-instruction program.
  res.stats.elements = n;
  res.stats.instructions = chunks;
  res.stats.elapsed_cycles = mem_.elapsed_cycles();
  res.stats.adaptive_cycles_saved = adaptive;
  res.stats.energy = mem_.total_energy();
  res.stats.elapsed_time = cycles_to_time(res.stats.elapsed_cycles);

  // Operand load in the cycle model: one staged row = one lock-step
  // row-write cycle per layer (pokes carry no cycle cost in the seed
  // semantics; this feeds only the batch double-buffering account).
  // Resident sides load nothing beyond their one materializing write.
  res.stats.load_cycles = load;
  res.stats.load_cycles_saved = rows_per_layer * layers - load;
  if (res.stats.load_cycles_saved > 0) residency_.note_saved(res.stats.load_cycles_saved);
  return res;
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
  for (const VecOp& op : ops) (void)validate(op, *this);

  std::vector<OpResult> results;
  results.reserve(ops.size());
  // Accumulated locally and published only when every op ran.
  BatchStats bs;
  bs.ops = ops.size();
  std::uint64_t prev_compute = 0;
  std::size_t prev_transient = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const VecOp& op = ops[k];
    results.push_back(run_one(op));
    const RunStats& s = results.back().stats;
    bs.elements += s.elements;
    bs.instructions += s.instructions;
    bs.load_cycles += s.load_cycles;
    bs.load_cycles_saved += s.load_cycles_saved;
    bs.compute_cycles += s.elapsed_cycles;
    bs.adaptive_cycles_saved += s.adaptive_cycles_saved;
    bs.energy += s.energy;
    // Double-buffered schedule: op k's load hides behind op k-1's compute --
    // but only when both ops fit in the array at once (their transient
    // regions plus the materialized pinned set), since the ping-pong load
    // needs row pairs that op k-1 is not still computing on. Two ops on
    // the same resident handle can never overlap: op k's activation write
    // targets the very pair op k-1 is computing on.
    const std::size_t transient = op.ra || op.rb ? 0 : layers_for(op);
    const auto shared = [&](const ResidentOperand& h) {
      return h && (h.id == ops[k - 1].ra.id || h.id == ops[k - 1].rb.id);
    };
    const bool can_overlap =
        k > 0 && !shared(op.ra) && !shared(op.rb) &&
        prev_transient + transient + residency_.resident_layers() <= row_pair_capacity();
    // prev_compute is 0 at k == 0, so the no-overlap arm also covers "the
    // first load has nothing to hide behind".
    bs.pipelined_cycles += can_overlap ? std::max(prev_compute, s.load_cycles)
                                       : prev_compute + s.load_cycles;
    prev_compute = s.elapsed_cycles;
    prev_transient = transient;
  }
  bs.pipelined_cycles += prev_compute;  // last compute has nothing to hide behind
  bs.serial_cycles = bs.load_cycles + bs.compute_cycles;
  bs.elapsed_time = cycles_to_time(bs.pipelined_cycles);
  batch_ = bs;
  span.arg("ops", static_cast<double>(bs.ops));
  span.arg("pipelined_cycles", static_cast<double>(bs.pipelined_cycles));
  span.arg("load_cycles_saved", static_cast<double>(bs.load_cycles_saved));
  return results;
}

// ---- fusion (run_forward / run_chain) ----------------------------------------

std::vector<macro::PinnedRows> ExecutionEngine::pinned_rows() const {
  std::vector<macro::PinnedRows> out;
  for (const auto& [base, layers] : residency_.materialized_intervals())
    out.push_back(macro::PinnedRows{2 * base, 2 * layers});
  return out;
}

ExecutionEngine::ForwardLayout ExecutionEngine::prepare_forward(
    std::span<const ResidentOperand> weights) {
  ForwardLayout fl;
  fl.bits = weights.front().bits;
  fl.elements = static_cast<std::size_t>(weights.front().elements);
  fl.per_op = mult_units_per_row(fl.bits);
  fl.chunks = (fl.elements + fl.per_op - 1) / fl.per_op;
  fl.layers = layers_for_elements(fl.elements, fl.bits, OperandLayout::MultUnit);
  fl.entries.resize(weights.size());
  fl.loaded.assign(weights.size(), 0);

  // The activation's pairs [0, L) stay reserved while the weights are
  // placed above them as one block. A shape whose weights and activation
  // cannot co-reside stays unfusable (the weights only resolve), and
  // run_forward falls back to op-at-a-time dispatch, which has no such
  // requirement.
  fl.fusable = residency_.ensure_block(weights, fl.layers, fl.entries, fl.loaded);
  if (!fl.fusable) return fl;
  fl.bases.resize(weights.size());
  for (std::size_t j = 0; j < fl.entries.size(); ++j) {
    if (fl.loaded[j]) materialize(*fl.entries[j]);
    fl.bases[j] = fl.entries[j]->base_pair;
  }
  return fl;
}

FusedForward& ExecutionEngine::fused_program_for(const ForwardLayout& fl) {
  // A macro's program depends only on how many chunks it holds: ceil(C/M)
  // for the first C % M macros (all of them when M divides C), floor(C/M)
  // for the rest.
  const std::size_t macros = mem_.macro_count();
  const ForwardShape shape{.bits = fl.bits,
                           .weights = fl.entries.size(),
                           .layers = fl.layers,
                           .short_tail = fl.chunks % macros != 0 && fl.chunks > macros};
  FusedForward& ff = fused_[shape];
  if (ff.programs.empty()) {
    BPIM_TRACE_INSTANT("fusion.compile", trace_track_,
                       {{"weights", static_cast<double>(shape.weights)},
                        {"layers", static_cast<double>(shape.layers)}});
    // Compile and verify one program per distinct chunk count. Each walks
    // the macro's chunks layer-major with the op loop inside, so every MULT
    // of a layer shares the staged activation row and the chained
    // datapath's D1-staging discount applies to all but the first.
    const macro::FusionCompiler compiler(mem_.macro(0).config().geometry);
    std::vector<macro::RelocatableForward> programs;
    for (std::size_t k = 0; k < (shape.short_tail ? 2u : 1u); ++k)
      programs.push_back(
          compiler.compile_relocatable_forward(fl.bits, shape.weights, fl.layers - k));
    ff.programs = std::move(programs);
    ++fusion_stats_.compiles;
  }
  for (macro::RelocatableForward& p : ff.programs) (void)p.bind(fl.bases);
  return ff;
}

std::vector<OpResult> ExecutionEngine::run_forward(std::span<const ResidentOperand> weights,
                                                   std::span<const std::uint64_t> activation) {
  BPIM_TRACE_SPAN(span, "engine.run_forward", trace_track_);
  (void)validate_forward(weights, activation.size());
  ForwardLayout fl = prepare_forward(weights);
  if (!fl.fusable) {
    ++fusion_stats_.fallback_runs;
    BPIM_TRACE_INSTANT("fusion.fallback", trace_track_,
                       {{"weights", static_cast<double>(weights.size())}});
    std::vector<VecOp> ops(weights.size());
    for (std::size_t j = 0; j < weights.size(); ++j)
      ops[j] = VecOp{
          .kind = OpKind::Mult, .bits = fl.bits, .a = {}, .b = activation, .ra = weights[j]};
    return run_batch(ops);
  }

  // Stage the shared activation in the even row of transient pair l and run
  // each macro's fused program on the chained datapath; macro m's trace
  // entry l*J + j is layer l of op j.
  const FusedForward& ff = fused_program_for(fl);
  const std::size_t ops = weights.size();
  std::vector<OpResult> results(ops);
  for (OpResult& r : results) r.values.assign(fl.elements, 0);
  const std::size_t macros = mem_.macro_count();
  ExecPlan& plan = begin_plan(std::min(fl.chunks, macros));
  for_each_chunk(fl.elements, fl.per_op, macros,
                 [&](std::size_t m, std::size_t l, std::size_t pos, std::size_t len) {
                   MacroPlan& mp = plan.macros[m];
                   mp.stage.push_back({2 * l, fl.bits, OperandLayout::MultUnit,
                                       activation.subspan(pos, len)});
                   for (std::size_t j = 0; j < ops; ++j)
                     mp.extract.push_back({l * ops + j, fl.bits, OperandLayout::MultUnit,
                                           std::span(results[j].values).subspan(pos, len)});
                 });
  // Macro m holds ceil(C/M) chunks (program 0) unless M does not divide C
  // and m >= C % M, which holds one fewer (program 1).
  const std::size_t rem = fl.chunks % macros;
  for (std::size_t m = 0; m < plan.active; ++m)
    plan.macros[m].programs.push_back(&ff.programs[rem != 0 && m >= rem ? 1 : 0].program());
  const std::uint64_t adaptive = execute(plan);

  // Per-op accounting: cycles from macro 0 (the max-layer macro; instruction
  // costs match across macros, so its walk is the lock-step critical path
  // and the per-op shares sum to mem_.elapsed_cycles()); energy merged in
  // fixed macro-then-layer order. Load: the activation bills to op 0, a
  // weight materialized this call to its own op; the baseline is 2 row
  // writes per layer per op.
  const std::uint64_t table_mult = macro::op_cycles(macro::Op::Mult, fl.bits);
  const std::vector<macro::TraceEntry>& trace0 = plan.macros[0].trace;
  const std::size_t layers0 = trace0.size() / ops;
  std::uint64_t load_total = 0;
  std::uint64_t saved_total = 0;
  std::uint64_t fused_saved_total = 0;
  for (std::size_t j = 0; j < ops; ++j) {
    RunStats& s = results[j].stats;
    s.elements = fl.elements;
    s.instructions = fl.chunks;  // one MULT per chunk
    for (std::size_t l = 0; l < layers0; ++l) {
      s.elapsed_cycles += trace0[l * ops + j].cycles;
      s.adaptive_cycles_saved += trace0[l * ops + j].adaptive_cycles_saved;
    }
    for (std::size_t m = 0; m < plan.active; ++m) {
      const std::vector<macro::TraceEntry>& trace = plan.macros[m].trace;
      for (std::size_t e = j; e < trace.size(); e += ops) s.energy += trace[e].op_energy;
    }
    s.elapsed_time = cycles_to_time(s.elapsed_cycles);
    // Per-instruction conservation splits each MULT's Table 1 cost three
    // ways exactly: executed + fused discount + adaptive discount.
    s.fused_cycles_saved = table_mult * layers0 - s.elapsed_cycles - s.adaptive_cycles_saved;
    fused_saved_total += s.fused_cycles_saved;
    s.load_cycles = (j == 0 ? fl.layers : 0) + (fl.loaded[j] ? fl.layers : 0);
    load_total += s.load_cycles;
    const std::uint64_t baseline = 2 * fl.layers;
    s.load_cycles_saved = s.load_cycles >= baseline ? 0 : baseline - s.load_cycles;
    saved_total += s.load_cycles_saved;
  }
  if (saved_total > 0) residency_.note_saved(saved_total);

  publish_fused({.ops = ops,
                 .elements = static_cast<std::uint64_t>(ops) * fl.elements,
                 .instructions = ops * fl.chunks,
                 .load_cycles = load_total,
                 .load_cycles_saved = saved_total,
                 .compute_cycles = mem_.elapsed_cycles(),
                 .fused_cycles_saved = fused_saved_total,
                 .adaptive_cycles_saved = adaptive,
                 .energy = mem_.total_energy()});
  ++fusion_stats_.fused_runs;
  span.arg("ops", static_cast<double>(ops));
  span.arg("pipelined_cycles", static_cast<double>(batch_.pipelined_cycles));
  span.arg("fused_cycles_saved", static_cast<double>(batch_.fused_cycles_saved));
  return results;
}

OpResult ExecutionEngine::run_chain(const ChainRequest& req) {
  BPIM_TRACE_SPAN(span, "engine.run_chain", trace_track_);
  (void)validate(req, *this);
  const std::size_t n = req.a.size();
  const std::size_t per_op = mult_units_per_row(req.bits);
  const std::size_t macros = mem_.macro_count();
  const std::size_t chunks = (n + per_op - 1) / per_op;
  const std::size_t layers = (chunks + macros - 1) / macros;
  const std::size_t links = req.links.size();
  const std::size_t pairs_per_layer = (2 + links + 1) / 2;  // a, b and one row per link
  residency_.reserve_transient(pairs_per_layer * layers);

  // Layer l of macro m stages a, b and the link operands from row
  // 2 * pairs_per_layer * l up; the last link of each layer block drives
  // the chain's value out.
  const std::size_t active = std::min(chunks, macros);
  OpResult res;
  res.values.assign(n, 0);
  ExecPlan& plan = begin_plan(active);
  std::vector<macro::ChainSpec> specs(active, macro::ChainSpec{.bits = req.bits, .layers = {}});
  for_each_chunk(n, per_op, macros,
                 [&](std::size_t m, std::size_t l, std::size_t pos, std::size_t len) {
                   MacroPlan& mp = plan.macros[m];
                   const std::size_t base = 2 * pairs_per_layer * l;
                   const auto head = OperandLayout::MultUnit;
                   specs[m].layers.push_back({.a_row = base, .b_row = base + 1, .links = {}});
                   mp.stage.push_back({base, req.bits, head, req.a.subspan(pos, len)});
                   mp.stage.push_back({base + 1, req.bits, head, req.b.subspan(pos, len)});
                   // Link operands are full 2N-bit fields, aligned with the
                   // product units (words_per_row(2N) == mult_units_per_row(N)).
                   for (std::size_t j = 0; j < links; ++j) {
                     specs[m].layers.back().links.emplace_back(req.links[j].kind, base + 2 + j);
                     mp.stage.push_back({base + 2 + j, 2 * req.bits, OperandLayout::Word,
                                         req.links[j].values.subspan(pos, len)});
                   }
                   mp.extract.push_back({l * (1 + links) + links, req.bits, head,
                                         std::span(res.values).subspan(pos, len)});
                 });
  const macro::FusionCompiler compiler(mem_.macro(0).config().geometry, pinned_rows());
  std::vector<macro::VerifiedProgram> programs;
  programs.reserve(active);
  for (std::size_t m = 0; m < active; ++m)
    plan.macros[m].programs.push_back(&programs.emplace_back(compiler.compile_chain(specs[m])));
  const std::uint64_t adaptive = execute(plan);

  // Load account: a, b and each link operand stage once per layer. The
  // op-at-a-time equivalent re-stages the spilled intermediate next to every
  // link operand -- 2 rows per link per layer -- so the chain saves one row
  // write per link per layer.
  const std::uint64_t load = (2 + links) * layers;
  const std::uint64_t saved = links * layers;
  residency_.note_saved(saved);

  res.stats.elements = n;
  res.stats.instructions = chunks * (1 + links);  // a MULT and the links per chunk
  res.stats.elapsed_cycles = mem_.elapsed_cycles();
  res.stats.energy = mem_.total_energy();
  res.stats.elapsed_time = cycles_to_time(res.stats.elapsed_cycles);
  res.stats.load_cycles = load;
  res.stats.load_cycles_saved = saved;
  res.stats.adaptive_cycles_saved = adaptive;
  publish_fused({.ops = 1,
                 .elements = n,
                 .instructions = res.stats.instructions,
                 .load_cycles = load,
                 .load_cycles_saved = saved,
                 .compute_cycles = res.stats.elapsed_cycles,
                 .adaptive_cycles_saved = adaptive,
                 .energy = res.stats.energy});
  ++fusion_stats_.chain_runs;
  return res;
}

}  // namespace bpim::engine
