#include "macro/program.hpp"

#include <sstream>

#include "common/require.hpp"
#include "macro/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpim::macro {

namespace {

// Program-path instruments, resolved once (stable addresses, lock-free
// updates thereafter). Per-program cycles are the adoption signal of the
// unified execution model.
obs::Histogram& program_cycles_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "macro.program.cycles", "modeled cycles per executed macro program");
  return h;
}

// Adaptive-execution instruments: how often the policy fires, what it saves,
// and the narrowed-depth distribution (full-depth MULTs observe bits).
obs::Counter& adaptive_mults_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.mults", "MULTs executed under an enabled adaptive policy");
  return c;
}

obs::Counter& adaptive_skipped_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.skipped", "MULTs skipped outright (all products provably zero)");
  return c;
}

obs::Counter& adaptive_saved_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.cycles_saved", "modeled cycles saved by adaptive narrowing/skipping");
  return c;
}

obs::Histogram& adaptive_depth_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "engine.adaptive.narrowed_depth", "executed add-shift depth per adaptive MULT");
  return h;
}

}  // namespace

std::string to_string(const Instruction& inst) {
  std::ostringstream os;
  os << to_string(inst.op);
  if (inst.op == Op::Nand || inst.op == Op::And || inst.op == Op::Nor || inst.op == Op::Or ||
      inst.op == Op::Xnor || inst.op == Op::Xor)
    os << "(" << periph::to_string(inst.logic_fn) << ")";
  auto row = [](const array::RowRef& r) {
    std::string name(r.is_dummy() ? "D" : "R");
    return name += std::to_string(r.index);
  };
  os << " " << row(inst.a);
  if (is_dual_wl(inst.op)) os << ", " << row(inst.b);
  if (inst.dest) os << " -> " << row(*inst.dest);
  os << " @" << inst.bits << "b";
  return os.str();
}

Program& Program::logic(periph::LogicFn fn, array::RowRef a, array::RowRef b) {
  BPIM_REQUIRE(fn != periph::LogicFn::PassA && fn != periph::LogicFn::NotA,
               "PassA/NotA are single-WL paths; use unary(COPY/NOT)");
  // Op::And is the representative dual-WL logic op; fn carries the function.
  return push({.op = Op::And, .logic_fn = fn, .a = a, .b = b});
}

Program& Program::unary(Op op, array::RowRef src, array::RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift,
               "unary() takes NOT/COPY/SHIFT");
  return push({.op = op, .a = src, .dest = dest, .bits = bits});
}

Program& Program::add(array::RowRef a, array::RowRef b, unsigned bits,
                      std::optional<array::RowRef> dest) {
  return push({.op = Op::Add, .a = a, .b = b, .dest = dest, .bits = bits});
}

Program& Program::add_shift(array::RowRef a, array::RowRef b, unsigned bits,
                            array::RowRef dest) {
  return push({.op = Op::AddShift, .a = a, .b = b, .dest = dest, .bits = bits});
}

Program& Program::sub(array::RowRef a, array::RowRef b, unsigned bits) {
  return push({.op = Op::Sub, .a = a, .b = b, .bits = bits});
}

Program& Program::mult(array::RowRef a, array::RowRef b, unsigned bits) {
  return push({.op = Op::Mult, .a = a, .b = b, .bits = bits});
}

std::uint64_t Program::static_cycles() const {
  std::uint64_t c = 0;
  for (const auto& i : instructions_) c += op_cycles(i.op, i.bits);
  return c;
}

std::string Program::dump() const {
  std::ostringstream os;
  for (std::size_t k = 0; k < instructions_.size(); ++k) {
    const Instruction& i = instructions_[k];
    os << "#" << k << "\t" << to_string(i);
    switch (i.op) {
      case Op::Mult:
        os << "\t; D1 <- masked a, FF <- b, product -> D2";
        break;
      case Op::Sub:
        os << "\t; D1 <- ~b, difference driven out";
        break;
      case Op::Add:
        if (!i.dest) os << "\t; sum driven out";
        break;
      case Op::AddShift:
        os << "\t; (a+b)<<1 in-field";
        break;
      default:
        break;
    }
    os << "\n";
  }
  return os.str();
}

ProgramStats MacroController::run(const Program& p, std::vector<TraceEntry>* trace,
                                  bool fuse_mac_chains, const AdaptivePolicy& policy) {
  verify_program(p, macro_).require_ok(p);
  return execute(p, trace, fuse_mac_chains, policy);
}

ProgramStats MacroController::run(const VerifiedProgram& p, std::vector<TraceEntry>* trace,
                                  bool fuse_mac_chains, const AdaptivePolicy& policy) {
  BPIM_REQUIRE(p.geometry() == macro_.config().geometry,
               "program was verified for a different array geometry");
  return execute(p, trace, fuse_mac_chains, policy);
}

ProgramStats MacroController::execute(const Program& p, std::vector<TraceEntry>* trace,
                                      bool fuse_mac_chains, const AdaptivePolicy& policy) {
  // The macro ledger is the account: each instruction's cycles and energy
  // are read back from last_op(). CostModel prices the same stream
  // statically, and the conservation tests hold the two equal.
  ProgramStats stats;
  const Instruction* prev = nullptr;
  // What the masked-copy dummy row D1 currently holds. A MULT whose staging
  // cycle executes records its multiplicand here; a skipped or d1-staged
  // MULT leaves it alone (the add-shift iterations only write D2); SUB and
  // any explicit write to D1 clobber it. Fusion's D1-reuse discount keys off
  // this rather than just the previous instruction, because under zero-skip
  // the MULT that *would* have staged may not have -- reusing D1 then would
  // multiply by stale data.
  struct {
    array::RowRef row{};
    unsigned bits = 0;
    bool valid = false;
  } staged;
  const array::RowRef d1_row = array::RowRef::dummy(ImcMacro::kDummyOperand);
  for (const Instruction& i : p.instructions()) {
    MultPlan plan;
    BitVector result = [&] {
      switch (i.op) {
        case Op::Nand:
        case Op::And:
        case Op::Nor:
        case Op::Or:
        case Op::Xnor:
        case Op::Xor:
          return macro_.logic_rows(i.logic_fn, i.a, i.b);
        case Op::Not:
        case Op::Copy:
        case Op::Shift:
          return macro_.unary_row(i.op, i.a, *i.dest, i.bits);
        case Op::Add:
          return macro_.add_rows(i.a, i.b, i.bits, i.dest);
        case Op::AddShift:
          return macro_.add_shift_rows(i.a, i.b, i.bits, *i.dest);
        case Op::Sub:
          return macro_.sub_rows(i.a, i.b, i.bits);
        case Op::Mult:
          break;
      }
      // Chain discount: a MULT directly after a MULT at the same precision
      // loads its FF while the predecessor's final D2 write-back drains; if
      // D1 still holds this multiplicand's masked copy, the staging cycle
      // drops out as well. The adaptive policy then narrows/skips against
      // the operand data; the one resolved plan drives execution and the
      // savings split alike. With the policy off the plan is the static one
      // and the operands need no scan.
      const bool pipelined =
          fuse_mac_chains && prev != nullptr && prev->op == Op::Mult && prev->bits == i.bits;
      const bool d1_staged =
          pipelined && staged.valid && staged.row == i.a && staged.bits == i.bits;
      plan = policy.enabled() ? macro_.plan_mult(i.a, i.b, i.bits, policy, d1_staged, pipelined)
                              : MultPlan::full(i.bits, d1_staged, pipelined);
      return macro_.mult_rows_planned(i.a, i.b, i.bits, plan);
    }();
    const unsigned adaptive = i.op == Op::Mult ? plan.adaptive_cycles_saved(i.bits) : 0;
    const ExecStats es = macro_.last_op();
    ++stats.instructions;
    stats.cycles += es.cycles;
    if (i.op == Op::Mult) {
      const unsigned fused = plan.fused_cycles_saved();
      BPIM_REQUIRE(es.cycles + fused + adaptive == op_cycles(i.op, i.bits),
                   "MULT cycle conservation violated (static != cycles + fused + adaptive)");
      stats.fused_cycles_saved += fused;
      stats.adaptive_cycles_saved += adaptive;
      if (policy.enabled()) {
        adaptive_mults_counter().add();
        if (plan.skip) adaptive_skipped_counter().add();
        if (adaptive > 0) adaptive_saved_counter().add(adaptive);
        adaptive_depth_histogram().observe(plan.depth);
      }
      // Track what D1 holds after this MULT for the next link's reuse test.
      if (plan.staging_cycles() > 0) {
        staged.row = i.a;
        staged.bits = i.bits;
        staged.valid = true;
      }
    } else if (i.op == Op::Sub || (i.dest && *i.dest == d1_row)) {
      staged.valid = false;  // D1 clobbered (SUB stages ~b there; dest hit it)
    }
    stats.energy += es.op_energy;
    if (trace)
      trace->push_back(TraceEntry{i, es.cycles, es.op_energy, std::move(result), adaptive, plan});
    prev = &i;
  }
  stats.elapsed = macro_.cycle_time() * static_cast<double>(stats.cycles);
  program_cycles_histogram().observe(stats.cycles);
#if BPIM_OBS_ENABLED
  // Per-program events are high volume (one per macro per batch step), so
  // they stay behind the extra macro-events gate; a bench opts in when it
  // wants the microscope view.
  if (auto& session = obs::TraceSession::global(); session.macro_events_on()) {
    session.instant("macro.program", 0,
                    obs::EventArgs{{"instructions", static_cast<double>(stats.instructions)},
                                   {"cycles", static_cast<double>(stats.cycles)},
                                   {"fused_cycles_saved",
                                    static_cast<double>(stats.fused_cycles_saved)},
                                   {"adaptive_cycles_saved",
                                    static_cast<double>(stats.adaptive_cycles_saved)}});
  }
#endif
  return stats;
}

}  // namespace bpim::macro
