#include "engine/execution_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "macro/isa.hpp"
#include "obs/metrics.hpp"

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

// Program-path instruments, resolved once and published by execute()
// after the join: per-program cycles (the adoption signal of the unified
// execution model), and how often the adaptive policy fires, what it saves
// and the depths it narrows to.
struct Instruments {
  obs::Histogram& program_cycles;
  obs::Counter& adaptive_mults;
  obs::Counter& adaptive_skipped;
  obs::Counter& adaptive_saved;
  obs::Histogram& adaptive_depth;
};

const Instruments& instruments() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  static const Instruments i{
      r.histogram("macro.program.cycles", "modeled cycles per executed macro program"),
      r.counter("engine.adaptive.mults", "MULTs executed under an enabled adaptive policy"),
      r.counter("engine.adaptive.skipped", "MULTs skipped outright (all products provably zero)"),
      r.counter("engine.adaptive.cycles_saved",
                "modeled cycles saved by adaptive narrowing/skipping"),
      r.histogram("engine.adaptive.narrowed_depth", "executed add-shift depth per adaptive MULT"),
  };
  return i;
}

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

/// Write a whole operand row, as a hardware row write drives every column:
/// the values, then zeros to the row's end, so nothing an earlier op left in
/// the row's tail reaches the next op (the adaptive MULT planner scans the
/// whole row). Most staged rows are full, so only a short one pays for the
/// tail.
void stage_row(macro::ImcMacro& mac, std::size_t row, unsigned bits, OperandLayout layout,
               std::span<const std::uint64_t> src) {
  const bool units = layout == OperandLayout::MultUnit;
  if (units)
    mac.poke_mult_operands(row, 0, bits, src);
  else
    mac.poke_words(row, 0, bits, src);
  const std::size_t end = src.size() * (units ? 2 * bits : bits);
  if (end < mac.cols()) mac.poke_zero_tail(row, end);
}

/// Macro m of M holds ceil(C/M) of C chunks (fused program 0) unless M
/// does not divide C and m >= C % M, which holds one fewer (program 1).
std::size_t program_of(std::size_t m, std::size_t chunks, std::size_t macros) {
  return chunks % macros != 0 && m >= chunks % macros ? 1 : 0;
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
  // Each chunk's row image, as stage_row stages it: the values, then the
  // zero tail of a fresh row. A function of the values and the geometry
  // alone that touches no array, so clients may pin while the run thread
  // dispatches.
  const std::size_t per_op = elements_per_chunk(bits, layout);
  const unsigned field = layout == OperandLayout::MultUnit ? 2 * bits : bits;
  std::vector<BitVector> rows;
  rows.reserve((values.size() + per_op - 1) / per_op);
  for_each_chunk(values.size(), per_op, 1, [&](std::size_t, std::size_t, std::size_t pos,
                                               std::size_t len) {
    macro::deposit_fields(rows.emplace_back(mem_.macro(0).cols()), 0, field, bits,
                          values.subspan(pos, len));
  });
  return residency_.pin(std::move(rows), values.size(), bits, layout,
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
  // Chunk c's image is the even row of pair base + c / M on macro c % M:
  // one row copy each.
  const std::size_t macros = mem_.macro_count();
  for (std::size_t m = 0; m < macros && m < entry.rows.size(); ++m) {
    macro::ImcMacro& mac = mem_.macro(m);
    for (std::size_t c = m; c < entry.rows.size(); c += macros)
      mac.poke_row(2 * (entry.base_pair + c / macros), entry.rows[c]);
  }
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
    mp.sealed = nullptr;
  }
  plan_.active = active;
  return plan_;
}

std::uint64_t ExecutionEngine::execute(ExecPlan& plan) {
  mem_.reset_counters();
  // Macro m owns its chunks outright (own rows, RNG stream and ledger), so
  // any thread count gives bit-identical results. The memory ledger is the
  // dispatch's account; each worker keeps the stats of every program its
  // controller ran. The controller chains back-to-back MULTs inside one
  // program only, so single-instruction programs run unchained.
  const macro::AdaptivePolicy pol = adaptive_policy();
  pool_.parallel_for(plan.active, [&](std::size_t m) {
    auto& mac = mem_.macro(m);
    MacroPlan& mp = plan.macros[m];
    for (const auto& s : mp.stage) stage_row(mac, s.index, s.bits, s.layout, s.values);
    macro::MacroController ctl(mac);
    mp.ran.clear();
    if (mp.sealed != nullptr)
      return mp.ran.push_back(ctl.run(*mp.programs.front(), pol, *mp.sealed));
    std::span<macro::Extract> records = mp.extract;
    for (const macro::VerifiedProgram* p : mp.programs) {
      mp.ran.push_back(ctl.run(*p, pol, records.first(p->size())));
      records = records.subspan(p->size());
    }
  });

  // After the join, one walk over the programs' stats. Per macro, ledger
  // cycles plus its programs' adaptive savings is its policy-off walk under
  // the same fusion pattern (per-instruction conservation is exact), so the
  // max over macros is the policy-off makespan and dense == elapsed +
  // adaptive_cycles_saved holds exactly. The same walk publishes the
  // program-path instruments: each program's cycles, its macro.program
  // instant behind the macro-events gate, and, under an enabled policy, the
  // adaptive tallies the controller counted as each MULT retired.
  const Instruments& ins = instruments();
  const bool events = BPIM_TRACE_ON() && obs::TraceSession::global().macro_events_on();
  std::uint64_t dense = 0, mults = 0, skipped = 0, saved = 0;
  std::array<std::uint64_t, 33> depth_counts{};  // adaptive MULTs per executed depth
  for (std::size_t m = 0; m < plan.active; ++m) {
    std::uint64_t adaptive = 0;
    for (const macro::ProgramStats& st : plan.macros[m].ran) {
      adaptive += st.adaptive_cycles_saved;
      ins.program_cycles.observe(st.cycles);
      if (events)
        obs::TraceSession::global().instant(
            "macro.program", trace_track_,
            {{"instructions", static_cast<double>(st.instructions)},
             {"cycles", static_cast<double>(st.cycles)},
             {"fused_cycles_saved", static_cast<double>(st.fused_cycles_saved)},
             {"adaptive_cycles_saved", static_cast<double>(st.adaptive_cycles_saved)}});
      if (pol.enabled() && st.mults > 0) {
        mults += st.mults;
        skipped += st.skipped;
        for (std::size_t d = 0; d < depth_counts.size(); ++d) depth_counts[d] += st.depths[d];
      }
    }
    dense = std::max(dense, mem_.macro(m).total_cycles() + adaptive);
    saved += adaptive;
  }
  if (pol.enabled()) {
    ins.adaptive_mults.add(mults);
    if (skipped > 0) ins.adaptive_skipped.add(skipped);
    if (saved > 0) ins.adaptive_saved.add(saved);
    for (std::size_t d = 0; d < depth_counts.size(); ++d)
      if (depth_counts[d] > 0) ins.adaptive_depth.observe(d, depth_counts[d]);
  }
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
  const std::size_t n = ea != nullptr ? ea->handle.elements : op.a.size();
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
                     mp.stage.push_back({r_a, op.bits, layout, op.a.subspan(pos, len)});
                   if (!unary && eb == nullptr)
                     mp.stage.push_back({r_b, op.bits, layout, op.b.subspan(pos, len)});
                   mp.extract.push_back({op.bits, std::span(res.values).subspan(pos, len)});
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

// ---- fusion (run_forward) ---------------------------------------------------

const ExecutionEngine::ForwardLayout& ExecutionEngine::prepare_forward(
    std::span<const ResidentOperand> weights) {
  ForwardLayout& fl = layout_;
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

std::pair<const FusedForward&, ForwardPlan&> ExecutionEngine::fused_program_for(
    const ForwardLayout& fl) {
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
  auto it = ff.plans.find(fl.elements);
  if (it == ff.plans.end()) {
    // The dispatch plan of this element count: macro m's record l * J + j
    // retires layer l of op j into row j of the slab. Built and checked
    // aside, so a failure leaves no partial plan, and moved in (a moved
    // vector keeps its buffer, so the spans stay valid).
    const std::size_t n = fl.elements;
    ForwardPlan fp{.slab = std::vector<std::uint64_t>(shape.weights * n), .records = {}};
    std::vector<std::vector<macro::Extract>> raw(std::min(fl.chunks, macros));
    for_each_chunk(n, fl.per_op, macros,
                   [&](std::size_t m, std::size_t, std::size_t pos, std::size_t len) {
                     for (std::size_t j = 0; j < shape.weights; ++j)
                       raw[m].push_back({fl.bits, std::span(fp.slab).subspan(j * n + pos, len)});
                   });
    fp.records.reserve(raw.size());
    for (std::size_t m = 0; m < raw.size(); ++m)
      fp.records.emplace_back(ff.programs[program_of(m, fl.chunks, macros)].program(),
                              std::move(raw[m]));
    it = ff.plans.emplace(n, std::move(fp)).first;
  }
  return {ff, it->second};
}

std::vector<OpResult> ExecutionEngine::run_forward(std::span<const ResidentOperand> weights,
                                                   std::span<const std::uint64_t> activation) {
  BPIM_TRACE_SPAN(span, "engine.run_forward", trace_track_);
  (void)validate_forward(weights, activation.size());
  const ForwardLayout& fl = prepare_forward(weights);
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
  // each macro's fused program on the chained datapath into the shape's
  // cached records; macro m's record l*J + j is layer l of op j.
  const auto [ff, fp] = fused_program_for(fl);
  const std::size_t ops = weights.size();
  const std::size_t macros = mem_.macro_count();
  ExecPlan& plan = begin_plan(fp.records.size());
  for_each_chunk(fl.elements, fl.per_op, macros,
                 [&](std::size_t m, std::size_t l, std::size_t pos, std::size_t len) {
                   plan.macros[m].stage.push_back({2 * l, fl.bits, OperandLayout::MultUnit,
                                                   activation.subspan(pos, len)});
                 });
  for (std::size_t m = 0; m < plan.active; ++m) {
    plan.macros[m].programs.push_back(&ff.programs[program_of(m, fl.chunks, macros)].program());
    plan.macros[m].sealed = &fp.records[m];
  }
  const std::uint64_t adaptive = execute(plan);

  // Per-op accounting from the retire records: cycles from the makespan
  // macro (the largest ledger total, lowest index on a tie; under the
  // adaptive policy it need not hold the most layers), so the per-op shares
  // sum to mem_.elapsed_cycles(); energy merged in fixed macro-then-layer
  // order. Load: the activation bills to op 0, a weight materialized this
  // call to its own op; the baseline is 2 row writes per layer per op.
  const std::uint64_t table_mult = macro::op_cycles(macro::Op::Mult, fl.bits);
  std::size_t critical = 0;
  for (std::size_t m = 1; m < plan.active; ++m)
    if (mem_.macro(m).total_cycles() > mem_.macro(critical).total_cycles()) critical = m;
  const std::size_t layers_c = fp.records[critical].size() / ops;
  // One ordered pass per macro: record l * J + j is op j's.
  std::vector<OpResult> results(ops);
  for (std::size_t m = 0; m < plan.active; ++m) {
    std::size_t j = 0;
    for (const macro::Extract& x : fp.records[m]) {
      RunStats& s = results[j].stats;
      s.energy += x.op_energy;
      if (m == critical) {
        s.elapsed_cycles += x.cycles;
        s.adaptive_cycles_saved += x.adaptive_cycles_saved;
      }
      if (++j == ops) j = 0;
    }
  }
  std::uint64_t load_total = 0;
  std::uint64_t saved_total = 0;
  std::uint64_t fused_saved_total = 0;
  for (std::size_t j = 0; j < ops; ++j) {
    const auto row = std::span(fp.slab).subspan(j * fl.elements, fl.elements);
    results[j].values.assign(row.begin(), row.end());
    RunStats& s = results[j].stats;
    s.elements = fl.elements;
    s.instructions = fl.chunks;  // one MULT per chunk
    s.elapsed_time = cycles_to_time(s.elapsed_cycles);
    // Per-instruction conservation splits each MULT's Table 1 cost three
    // ways exactly: executed + fused discount + adaptive discount.
    s.fused_cycles_saved = table_mult * layers_c - s.elapsed_cycles - s.adaptive_cycles_saved;
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

}  // namespace bpim::engine
