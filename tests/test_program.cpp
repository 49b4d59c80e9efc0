// Program / MacroController: verification, execution, retire records.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "priced_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

TEST(Program, BuilderAccumulatesAndCostsStatically) {
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8)
      .sub(RowRef::main(2), RowRef::main(3), 8)
      .mult(RowRef::main(4), RowRef::main(5), 8)
      .unary(Op::Not, RowRef::main(6), RowRef::dummy(0), 8);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.static_cycles(), 1u + 2u + 10u + 1u);
}

TEST(Program, LogicBuilderRejectsSingleWlFunctions) {
  Program p;
  EXPECT_THROW(p.logic(LogicFn::PassA, RowRef::main(0), RowRef::main(1)),
               std::invalid_argument);
  EXPECT_THROW(p.logic(LogicFn::NotA, RowRef::main(0), RowRef::main(1)),
               std::invalid_argument);
}

TEST(Program, UnaryBuilderRejectsArithmetic) {
  Program p;
  EXPECT_THROW(p.unary(Op::Add, RowRef::main(0), RowRef::dummy(0), 8), std::invalid_argument);
}

TEST(Controller, VerifierChecksRowsUpfront) {
  const ImcMacro m{MacroConfig{}};
  const auto kinds = [&](const Program& p) {
    std::vector<DiagKind> out;
    for (const Diagnostic& d : verify_program(p, m.config().geometry).diagnostics)
      out.push_back(d.kind);
    return out;
  };

  Program bad_row;
  bad_row.add(RowRef::main(0), RowRef::main(200), 8);
  EXPECT_EQ(kinds(bad_row), std::vector<DiagKind>{DiagKind::RowOutOfRange});

  Program same_row;
  same_row.add(RowRef::main(3), RowRef::main(3), 8);
  EXPECT_EQ(kinds(same_row), std::vector<DiagKind>{DiagKind::IdenticalRows});

  Program ok;
  ok.add(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_TRUE(kinds(ok).empty());
}

TEST(Controller, RejectionLeavesMacroUntouched) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 9);
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);   // fine
  p.add(RowRef::main(0), RowRef::main(999), 8); // invalid
  EXPECT_THROW(ctl.run(p), std::invalid_argument);
  EXPECT_EQ(m.total_cycles(), 0u);  // nothing executed
}

TEST(Controller, RunsAndAggregatesStats) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 20);
  m.poke_word(1, 0, 8, 30);
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8).sub(RowRef::main(0), RowRef::main(1), 8);
  const ProgramStats st = ctl.run(p);
  EXPECT_EQ(st.instructions, 2u);
  EXPECT_EQ(st.cycles, 3u);  // 1 + 2
  EXPECT_GT(st.energy.si(), 0.0);
  EXPECT_GT(st.elapsed.si(), 0.0);
}

TEST(Controller, RetireRecordsCaptureResultsPerInstruction) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 5);
  m.poke_word(1, 0, 8, 6);
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);
  p.logic(LogicFn::Xor, RowRef::main(0), RowRef::main(1));
  RowCapture cap(p, m.cols());
  ctl.run(p, {}, cap.records());
  EXPECT_EQ(cap.row(0).to_u64() & 0xFF, 11u);
  EXPECT_EQ(cap.row(1).to_u64() & 0xFF, 5u ^ 6u);
  EXPECT_EQ(cap[0].cycles, 1u);
}

TEST(Controller, MultThroughProgramMatchesDirectCall) {
  ImcMacro m{MacroConfig{}};
  m.poke_mult_operand(0, 0, 8, 13);
  m.poke_mult_operand(1, 0, 8, 11);
  MacroController ctl(m);
  Program p;
  p.mult(RowRef::main(0), RowRef::main(1), 8);
  RowCapture cap(p, m.cols());
  ctl.run(p, {}, cap.records());
  EXPECT_EQ(cap[0].values[0], 143u);
  EXPECT_EQ(m.peek_mult_product(cap.row(0), 0, 8), 143u);
}

TEST(Controller, MalformedRecordsLeaveMacroUntouched) {
  // Every retire record is checked against its instruction before the
  // first instruction runs, in every build type: a bad record on a
  // program's last instruction throws with nothing executed or charged and
  // every main and dummy row as it was -- like a verifier rejection.
  ImcMacro m{MacroConfig{}};
  Rng rng(0x8EC);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    BitVector row(m.cols());
    row.randomize(rng);
    m.poke_row(r, row);
  }
  MacroController ctl(m);
  Program stage;  // leaves D1 and D2 holding data
  stage.mult(RowRef::main(6), RowRef::main(7), 8).sub(RowRef::main(0), RowRef::main(1), 8);
  ctl.run(stage);
  m.reset_counters();
  const auto rows = [&] {
    std::vector<BitVector> out;
    for (std::size_t r = 0; r < m.rows(); ++r) out.push_back(m.sram().row(RowRef::main(r)));
    for (std::size_t d = 0; d < m.config().geometry.dummy_rows; ++d)
      out.push_back(m.sram().row(RowRef::dummy(d)));
    return out;
  };
  const std::vector<BitVector> before = rows();

  Program word_last;  // the bad record sits on the ADD
  word_last.mult(RowRef::main(0), RowRef::main(1), 8)
      .sub(RowRef::main(2), RowRef::main(3), 8)
      .add(RowRef::main(4), RowRef::main(5), 8);
  Program mult_last;  // the bad record sits on the MULT
  mult_last.add(RowRef::main(4), RowRef::main(5), 8)
      .sub(RowRef::main(2), RowRef::main(3), 8)
      .mult(RowRef::main(0), RowRef::main(1), 8);
  std::vector<std::uint64_t> words(m.cols() / 8), past(m.cols() / 8 + 1);
  std::vector<std::uint64_t> units(m.mult_units_per_row(8) + 1);
  struct Case {
    const Program* p;
    Extract bad;
    const char* what;
  };
  for (const Case& c : {Case{&word_last, {.bits = 8, .values = past}, "word record past the row"},
                        Case{&word_last, {.bits = 0, .values = words}, "word bits 0"},
                        Case{&word_last, {.bits = 65, .values = words}, "word bits 65"},
                        Case{&mult_last, {.bits = 3, .values = words}, "MULT bits 3"},
                        Case{&mult_last, {.bits = 8, .values = units}, "MULT units past the row"}}) {
    RowCapture cap(*c.p, m.cols());
    cap.records()[2] = c.bad;
    EXPECT_THROW(ctl.run(*c.p, {}, cap.records()), std::invalid_argument) << c.what;
    EXPECT_EQ(m.total_cycles(), 0u) << c.what;
    EXPECT_EQ(m.total_energy().si(), 0.0) << c.what;
    EXPECT_TRUE(rows() == before) << c.what;
  }
  RowCapture ok(word_last, m.cols());
  EXPECT_NO_THROW(ctl.run(word_last, {}, ok.records()));
  EXPECT_EQ(m.total_cycles(), word_last.static_cycles());
}

TEST(Controller, CheckedRecordsRunOnlyTheProgramTheyWereCheckedAgainst) {
  // CheckedRecords are checked once, against one sealing: run with another
  // program -- even one sealed from the same instructions -- they throw
  // with every row, last_op and the ledger as they were. A malformed record
  // throws at the factory.
  ImcMacro m{MacroConfig{}};
  Rng rng(0xC4EC);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    BitVector row(m.cols());
    row.randomize(rng);
    m.poke_row(r, row);
  }
  MacroController ctl(m);
  Program stage;  // leaves D1, D2 and the ledger holding data
  stage.mult(RowRef::main(6), RowRef::main(7), 8).sub(RowRef::main(0), RowRef::main(1), 8);
  ctl.run(stage);
  const auto state = [&] {
    std::vector<BitVector> rows;
    for (std::size_t r = 0; r < m.rows(); ++r) rows.push_back(m.sram().row(RowRef::main(r)));
    for (std::size_t d = 0; d < m.config().geometry.dummy_rows; ++d)
      rows.push_back(m.sram().row(RowRef::dummy(d)));
    std::vector<double> ledger{m.total_energy().si(), m.last_op().op_energy.si()};
    for (std::size_t c = 0; c < 8; ++c)
      ledger.push_back(m.component_energy(static_cast<energy::Component>(c)).si());
    return std::tuple(rows, ledger, m.total_cycles(), m.last_op().cycles);
  };

  Program a;
  a.mult(RowRef::main(0), RowRef::main(1), 8)
      .mult(RowRef::main(0), RowRef::main(2), 8)
      .add(RowRef::main(4), RowRef::main(5), 8);
  Program c;
  c.add(RowRef::main(4), RowRef::main(5), 8)
      .mult(RowRef::main(0), RowRef::main(1), 8)
      .mult(RowRef::main(0), RowRef::main(2), 8);
  const array::ArrayGeometry& g = m.config().geometry;
  const VerifiedProgram va = VerifiedProgram::verify(a, g);
  const VerifiedProgram resealed = VerifiedProgram::verify(a, g);
  const VerifiedProgram vc = VerifiedProgram::verify(c, g);
  RowCapture cap(a, m.cols());
  const std::vector<Extract> raw(cap.records().begin(), cap.records().end());
  CheckedRecords recs(va, raw);
  ASSERT_EQ(recs.size(), a.size());

  const auto before = state();
  for (const VerifiedProgram* other : {&resealed, &vc}) {
    EXPECT_THROW(ctl.run(*other, {}, recs), std::invalid_argument);
    EXPECT_TRUE(state() == before);
  }
  MacroConfig wide;
  wide.geometry.cols = 256;
  ImcMacro wide_macro{wide};
  EXPECT_THROW(MacroController(wide_macro).run(va, {}, recs), std::invalid_argument);
  EXPECT_EQ(wide_macro.total_cycles(), 0u);

  // A malformed record, or a record count that is not the program's.
  std::vector<Extract> bad = raw;
  bad[0].bits = 3;
  EXPECT_THROW((void)CheckedRecords(va, bad), std::invalid_argument);
  std::vector<std::uint64_t> past(m.cols() / 8 + 1);
  bad = raw;
  bad[2] = {.bits = 8, .values = past};
  EXPECT_THROW((void)CheckedRecords(va, bad), std::invalid_argument);
  bad = raw;
  bad.pop_back();
  EXPECT_THROW((void)CheckedRecords(va, bad), std::invalid_argument);
  EXPECT_NO_THROW((void)CheckedRecords(va, {}));
  EXPECT_TRUE(state() == before);

  // Its own program runs, retiring exactly what a checked-per-call span
  // retires on a twin macro.
  ImcMacro twin{MacroConfig{}};
  for (std::size_t r = 0; r < m.rows(); ++r) twin.poke_row(r, m.peek_row(r));
  RowCapture twin_cap(a, twin.cols());
  const ProgramStats want = MacroController(twin).run(va, {}, twin_cap.records());
  const ProgramStats got = ctl.run(va, {}, recs);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.fused_cycles_saved, want.fused_cycles_saved);
  EXPECT_EQ(got.energy.si(), want.energy.si());
  std::size_t k = 0;
  for (const Extract& x : recs) {
    EXPECT_TRUE(std::ranges::equal(x.values, twin_cap[k].values)) << "#" << k;
    EXPECT_EQ(x.cycles, twin_cap[k].cycles) << "#" << k;
    EXPECT_EQ(x.op_energy.si(), twin_cap[k].op_energy.si()) << "#" << k;
    ++k;
  }
  EXPECT_EQ(k, a.size());
}

TEST(Controller, InstructionToStringReadable) {
  Instruction i;
  i.op = Op::Sub;
  i.a = RowRef::main(4);
  i.b = RowRef::dummy(1);
  i.bits = 4;
  const std::string s = to_string(i);
  EXPECT_NE(s.find("SUB"), std::string::npos);
  EXPECT_NE(s.find("R4"), std::string::npos);
  EXPECT_NE(s.find("D1"), std::string::npos);
  EXPECT_NE(s.find("4b"), std::string::npos);
}

TEST(Controller, AddShiftThroughProgramWritesDest) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 3);
  m.poke_word(1, 0, 8, 4);
  MacroController ctl(m);
  Program p;
  p.add_shift(RowRef::main(0), RowRef::main(1), 8, RowRef::dummy(ImcMacro::kDummyAccum));
  ctl.run(p);
  EXPECT_EQ(m.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)).to_u64() & 0xFF, 14u);
}

}  // namespace
}  // namespace bpim::macro
