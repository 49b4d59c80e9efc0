#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

using bpim::array::RowRef;
using bpim::engine::OpKind;
using bpim::macro::ImcMacro;

/// Cycle counts as the paper's Table 1 prints them (N = operand bits).
unsigned paper_table1_cycles(const OpClass& c) {
  switch (c.kind) {
    case OpKind::Sub:
      return 2;
    case OpKind::Mult:
      return c.bits + 2;
    default:
      return 1;  // ADD, ADD-Shift, NOT, dual-WL logic
  }
}

}  // namespace

MacroProbe::MacroProbe(std::vector<OpClass> classes, Report& report)
    : classes_(std::move(classes)),
      macro_(bpim::macro::MacroConfig{}),
      compiler_(macro_.config().geometry),
      ctrl_(macro_, bpim::macro::VerifyMode::VerifyFirst) {
  double worst = 0.0;
  for (const OpClass& c : classes_) {
    load_operands(c);
    const auto st = ctrl_.run(program_for(c));
    const double paper = paper_table1_cycles(c);
    worst = std::max(worst, std::fabs(static_cast<double>(st.cycles) - paper) / paper);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "model accuracy: Table 1 cycles over the workload's %zu op classes: max |err| "
                "%.2f%%",
                classes_.size(), 100.0 * worst);
  report.note(buf);
}

/// The program the engine would dispatch for one row pair of `c`, with the
/// same destination rows (AddShift retires into D2, NOT into D1).
const bpim::macro::Program& MacroProbe::program_for(const OpClass& c) {
  const RowRef a = RowRef::main(0), b = RowRef::main(1);
  switch (c.kind) {
    case OpKind::Add:
      return compiler_.add(a, b, c.bits);
    case OpKind::Sub:
      return compiler_.sub(a, b, c.bits);
    case OpKind::Mult:
      return compiler_.mult(a, b, c.bits);
    case OpKind::AddShift:
      return compiler_.add_shift(a, b, c.bits, RowRef::dummy(ImcMacro::kDummyAccum));
    case OpKind::Not:
      return compiler_.unary(bpim::macro::Op::Not, a, RowRef::dummy(ImcMacro::kDummyOperand),
                             c.bits);
    case OpKind::Logic:
      break;
  }
  return compiler_.logic(bpim::periph::LogicFn::Xor, a, b);
}

void MacroProbe::load_operands(const OpClass& c) {
  const bool mult = c.kind == OpKind::Mult;
  const std::size_t n = mult ? macro_.mult_units_per_row(c.bits) : macro_.words_per_row(c.bits);
  const std::uint64_t mask = (1ull << c.bits) - 1;
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = rng_.next_u64() & mask;
    if (mult)
      macro_.poke_mult_operands(r, 0, c.bits, v);
    else
      macro_.poke_words(r, 0, c.bits, v);
  }
}

void MacroProbe::run(double budget_s, SpanLog& spans) {
  // Blocks of kBlock runs per class, so every class weighs the same
  // whatever its length; only the run() calls are timed.
  constexpr int kBlock = 64;
  const auto stop = Clock::now() + seconds(budget_s);
  while (Clock::now() < stop) {
    for (const OpClass& c : classes_) {
      load_operands(c);
      const auto& prog = program_for(c);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBlock; ++i) insts_ += ctrl_.run(prog).instructions;
      const auto t1 = Clock::now();
      spans.add("macro.run", blocks_++, t0, t1, 6);
      ns_ += 1e3 * us_between(t0, t1);
    }
  }
}

double MacroProbe::ns_per_inst() const {
  return insts_ == 0 ? 0.0 : ns_ / static_cast<double>(insts_);
}

}  // namespace perfbench
