// Program / MacroController: verification, execution, retire records.

#include <gtest/gtest.h>

#include <map>

#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "obs/metrics.hpp"
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
    for (const Diagnostic& d : verify_program(p, m).diagnostics) out.push_back(d.kind);
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

TEST(Controller, WordRecordsPastTheRowAreRejected) {
  // A word record must fit its result row at a width of 1..64 bits; one
  // that does not throws before any value is read, in every build type.
  ImcMacro m{MacroConfig{}};
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);
  std::vector<std::uint64_t> fits(m.cols() / 8), past(m.cols() / 8 + 1);
  for (const Extract bad : {Extract{.bits = 8, .values = past}, Extract{.bits = 0, .values = fits},
                            Extract{.bits = 65, .values = fits}}) {
    Extract x = bad;
    EXPECT_THROW(ctl.run(p, {}, {&x, 1}), std::invalid_argument) << "bits " << bad.bits;
  }
  Extract ok{.bits = 8, .values = fits};
  EXPECT_NO_THROW(ctl.run(p, {}, {&ok, 1}));
}

TEST(Controller, ProgramCyclesHistogramSeesEveryProgram) {
  // One observation per executed program; the count is the bucket total.
  obs::Histogram& h = obs::MetricsRegistry::global().histogram("macro.program.cycles");
  const obs::HistogramSnapshot before = h.snapshot();
  ImcMacro m{MacroConfig{}};
  Program mult;
  mult.mult(RowRef::main(0), RowRef::main(1), 8);
  Program add;
  add.add(RowRef::main(0), RowRef::main(1), 8);
  MacroController ctl(m);
  ctl.run(mult);
  ctl.run(add);
  ctl.run(mult);
  const obs::HistogramSnapshot after = h.snapshot();
  EXPECT_EQ(after.count - before.count, 3u);
  EXPECT_DOUBLE_EQ(after.sum - before.sum, 2 * 10.0 + 1.0);
}

TEST(Controller, AdaptiveInstrumentsMatchTracedPlans) {
  // engine.adaptive.* count every MULT run under an enabled policy, exactly
  // as the retired plans resolved it: skipped MULTs, cycles saved and one
  // narrowed_depth observation per executed depth. MULTs run with the
  // policy off add nothing.
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& mults = r.counter("engine.adaptive.mults");
  obs::Counter& skipped = r.counter("engine.adaptive.skipped");
  obs::Counter& saved = r.counter("engine.adaptive.cycles_saved");
  obs::Histogram& depth = r.histogram("engine.adaptive.narrowed_depth");
  const auto upper_of = [](std::uint64_t v) {
    return obs::HistogramBuckets::upper_bound(obs::HistogramBuckets::index_of(v));
  };
  const auto bucket_count = [](const obs::HistogramSnapshot& s, std::uint64_t upper) {
    for (const auto& b : s.buckets)
      if (b.upper == upper) return b.count;
    return std::uint64_t{0};
  };
  ImcMacro m{MacroConfig{}};
  m.poke_mult_operand(0, 0, 8, 3);    // narrow multiplicand
  m.poke_mult_operand(1, 0, 8, 5);    // narrow multiplier
  m.poke_mult_operand(3, 0, 8, 255);  // dense
  m.poke_mult_operand(4, 0, 8, 201);  // dense
  Program p;  // row 2 is all zero: its MULTs skip
  p.mult(RowRef::main(0), RowRef::main(1), 8)
      .mult(RowRef::main(0), RowRef::main(2), 8)
      .mult(RowRef::main(3), RowRef::main(4), 8)
      .mult(RowRef::main(2), RowRef::main(1), 8);
  const std::uint64_t mults0 = mults.value(), skipped0 = skipped.value(), saved0 = saved.value();
  const obs::HistogramSnapshot depth0 = depth.snapshot();
  // Two adaptive runs add up; the policy-off run adds nothing.
  std::vector<Extract> records(2 * p.size());
  MacroController ctl(m);
  ctl.run(p, AdaptivePolicy{true, true}, std::span(records).first(p.size()));
  ctl.run(p, AdaptivePolicy{true, true}, std::span(records).last(p.size()));
  ctl.run(p);  // policy off: not an adaptive MULT
  std::uint64_t want_skipped = 0, want_saved = 0;
  std::map<std::uint64_t, std::uint64_t> want_depth;  // bucket upper -> count
  for (const Extract& e : records) {
    want_skipped += e.plan.skip ? 1 : 0;
    want_saved += e.adaptive_cycles_saved;
    ++want_depth[upper_of(e.plan.depth)];
  }
  ASSERT_GT(want_skipped, 0u);
  ASSERT_GT(want_saved, 0u);
  EXPECT_EQ(mults.value() - mults0, records.size());
  EXPECT_EQ(skipped.value() - skipped0, want_skipped);
  EXPECT_EQ(saved.value() - saved0, want_saved);
  const obs::HistogramSnapshot depth1 = depth.snapshot();
  EXPECT_EQ(depth1.count - depth0.count, records.size());
  for (const auto& [upper, n] : want_depth)
    EXPECT_EQ(bucket_count(depth1, upper) - bucket_count(depth0, upper), n) << "bucket " << upper;
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
