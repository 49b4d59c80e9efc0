#include "macro/program.hpp"

#include <sstream>

#include "common/require.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {

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

namespace {

/// Executes one non-MULT instruction; returns the row it drives out.
BitVector row_op(ImcMacro& m, const Instruction& i) {
  switch (i.op) {
    case Op::Nand:
    case Op::And:
    case Op::Nor:
    case Op::Or:
    case Op::Xnor:
    case Op::Xor:
      return m.logic_rows(i.logic_fn, i.a, i.b);
    case Op::Not:
    case Op::Copy:
    case Op::Shift:
      return m.unary_row(i.op, i.a, *i.dest, i.bits);
    case Op::Add:
      return m.add_rows(i.a, i.b, i.bits, i.dest);
    case Op::AddShift:
      return m.add_shift_rows(i.a, i.b, i.bits, *i.dest);
    case Op::Sub:
      return m.sub_rows(i.a, i.b, i.bits);
    case Op::Mult:
      break;
  }
  BPIM_REQUIRE(false, "MULT is not a row op");
  return {};
}

/// Every retire record against its instruction, before the first one runs:
/// a MULT's names a MULT precision whose 2N-bit units tile the row and at
/// most a row of those units; any other's 1..64 bits and at most a row of
/// words. The retire path reads values without checking again.
void check_records(const Program& p, std::span<const Extract> records, std::size_t cols) {
  BPIM_REQUIRE(records.size() == p.size(), "records hold one entry per instruction, or none");
  const std::vector<Instruction>& insts = p.instructions();
  for (std::size_t k = 0; k < insts.size(); ++k) {
    const Extract& x = records[k];
    const std::size_t field = insts[k].op == Op::Mult ? 2 * std::size_t{x.bits} : x.bits;
    // MULT fields are powers of two, so "units tile the row" is a mask.
    const bool width_ok = insts[k].op == Op::Mult
                              ? is_supported_precision(x.bits) && (cols & (field - 1)) == 0
                              : x.bits >= 1 && x.bits <= 64;
    BPIM_REQUIRE(width_ok && x.values.size() * field <= cols,
                 "retire record does not fit its instruction's result row");
  }
}

/// Words [0, x.values.size()) of `row` at x.bits into x.values.
void extract_words(const BitVector& row, const Extract& x) {
  for (std::size_t i = 0; i < x.values.size(); ++i)
    x.values[i] = row.extract_bits(i * x.bits, x.bits);
}

}  // namespace

CheckedRecords::CheckedRecords(const VerifiedProgram& p, std::vector<Extract> records)
    : seal_id_(p.seal_id()), records_(std::move(records)) {
  if (!records_.empty()) check_records(p, records_, p.geometry().cols);
}

ProgramStats MacroController::run(const Program& p, const AdaptivePolicy& policy,
                                  std::span<Extract> records) {
  return run(VerifiedProgram::verify(p, macro_.config().geometry), policy, records);
}

ProgramStats MacroController::run(const VerifiedProgram& p, const AdaptivePolicy& policy,
                                  std::span<Extract> records) {
  if (!records.empty()) check_records(p, records, p.geometry().cols);
  return execute(p, policy, records);
}

ProgramStats MacroController::run(const VerifiedProgram& p, const AdaptivePolicy& policy,
                                  CheckedRecords& records) {
  BPIM_REQUIRE(records.seal_id_ == p.seal_id(),
               "retire records were checked against another program");
  return execute(p, policy, records.records_);
}

ProgramStats MacroController::execute(const VerifiedProgram& p, const AdaptivePolicy& policy,
                                      std::span<Extract> records) {
  BPIM_REQUIRE(p.geometry() == macro_.config().geometry,
               "program was verified for a different array geometry");
  // The macro ledger is the account: each instruction's cycles and energy
  // are read back from it, and CostModel prices the same stream statically;
  // the conservation tests hold the two equal.
  ProgramStats stats;
  // Precision of the immediately preceding instruction if it was a MULT
  // (0 otherwise): a chain link must follow a MULT at its own precision.
  unsigned prev_mult_bits = 0;
  // The MULT whose masked multiplicand the dummy row D1 currently holds
  // (null: none). A MULT whose staging cycle executes records itself here;
  // a skipped or d1-staged MULT leaves it alone (the add-shift iterations
  // only write D2); SUB and any explicit write to D1 clobber it. Fusion's
  // D1-reuse discount keys off this rather than just the previous
  // instruction, because under zero-skip the MULT that *would* have staged
  // may not have -- reusing D1 then would multiply by stale data.
  const Instruction* staged = nullptr;
  const array::RowRef d1_row = array::RowRef::dummy(ImcMacro::kDummyOperand);
  const std::span<const Instruction> insts(p.program().instructions());
  for (std::size_t k = 0; k < insts.size();) {
    const Instruction& i = insts[k];
    if (i.op == Op::Mult) {
      // The sealed run from k, chained onto a predecessor MULT at its bits;
      // a last instruction ends its own, so a lone MULT reads no partition.
      const std::size_t end = k + 1 == insts.size() ? k + 1 : p.run_end(k);
      const MultPlan last = macro_.execute_mult_run(
          insts.subspan(k, end - k), policy, prev_mult_bits == i.bits,
          staged != nullptr && staged->a == i.a && staged->bits == i.bits,
          records.empty() ? records : records.subspan(k, end - k), stats);
      // D1 holds the run's multiplicand if its last MULT staged or read it.
      if (last.staging_cycles() > 0 || last.d1_staged) staged = &insts[end - 1];
      prev_mult_bits = i.bits;
      k = end;
    } else {
      const BitVector result = row_op(macro_, i);
      if (i.op == Op::Sub || (i.dest && *i.dest == d1_row))
        staged = nullptr;  // D1 clobbered (SUB stages ~b there; dest hit it)
      prev_mult_bits = 0;
      const ExecStats es = macro_.last_op();
      stats.cycles += es.cycles;
      stats.energy += es.op_energy;
      if (!records.empty()) {
        extract_words(result, records[k]);
        records[k] = {.bits = records[k].bits, .values = records[k].values,
                      .cycles = es.cycles, .op_energy = es.op_energy};
      }
      ++k;
    }
  }
  stats.instructions = p.size();
  stats.elapsed = macro_.cycle_time() * static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace bpim::macro
