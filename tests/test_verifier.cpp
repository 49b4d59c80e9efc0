// Static program verifier: every diagnostic kind has a program that
// triggers it, builder-produced programs are accepted, the controller
// rejects bad programs before the macro is touched, and a VerifiedProgram
// can only come out of the verifier and runs only on its own geometry.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "common/rng.hpp"
#include "macro/compiler.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {
namespace {

using array::ArrayGeometry;
using array::RowRef;
using periph::LogicFn;

ArrayGeometry default_geometry() { return MacroConfig{}.geometry; }

bool has(const VerifyReport& r, DiagKind kind) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.kind == kind; });
}

const Diagnostic& first(const VerifyReport& r, DiagKind kind) {
  for (const auto& d : r.diagnostics)
    if (d.kind == kind) return d;
  throw std::logic_error("diagnostic kind not present");
}

TEST(Verifier, AcceptsBuilderProgramCleanly) {
  Program p;
  p.logic(LogicFn::Xor, RowRef::main(0), RowRef::main(1))
      .unary(Op::Not, RowRef::main(2), RowRef::dummy(0), 8)
      .add(RowRef::main(0), RowRef::dummy(0), 8)
      .add_shift(RowRef::main(1), RowRef::main(2), 8, RowRef::dummy(2))
      .sub(RowRef::main(3), RowRef::main(4), 16)
      .mult(RowRef::main(4), RowRef::main(5), 8);
  const auto rep = verify_program(p, default_geometry());
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verifier, FlagsRowsOutOfRange) {
  Program p;
  p.add(RowRef::main(0), RowRef::main(200), 8)         // main beyond rows
      .unary(Op::Not, RowRef::main(1), RowRef::dummy(7), 8);  // dummy beyond dummy_rows
  const auto rep = verify_program(p, default_geometry());
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.diagnostics.size(), 2u);
  EXPECT_TRUE(has(rep, DiagKind::RowOutOfRange));
  EXPECT_EQ(first(rep, DiagKind::RowOutOfRange).instruction, 0u);
}

TEST(Verifier, FlagsIdenticalDualWlRows) {
  Program p;
  p.add(RowRef::main(3), RowRef::main(3), 8);
  const auto rep = verify_program(p, default_geometry());
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has(rep, DiagKind::IdenticalRows));
}

TEST(Verifier, FlagsScratchRowRoleViolations) {
  Program bad_mult;
  bad_mult.mult(RowRef::dummy(1), RowRef::main(1), 8);
  EXPECT_TRUE(has(verify_program(bad_mult, default_geometry()), DiagKind::RoleViolation));

  Program bad_mult_b;
  bad_mult_b.mult(RowRef::main(0), RowRef::dummy(2), 8);
  EXPECT_TRUE(has(verify_program(bad_mult_b, default_geometry()), DiagKind::RoleViolation));

  Program bad_sub;
  bad_sub.sub(RowRef::dummy(1), RowRef::main(0), 8);
  EXPECT_TRUE(has(verify_program(bad_sub, default_geometry()), DiagKind::RoleViolation));

  // The subtrahend may be D1: it is sensed before the scratch overwrite.
  Program ok_sub;
  ok_sub.sub(RowRef::main(0), RowRef::dummy(1), 8);
  EXPECT_TRUE(verify_program(ok_sub, default_geometry()).ok());
}

TEST(Verifier, FlagsMissingDest) {
  Program p;
  Instruction i;
  i.op = Op::Shift;
  i.a = RowRef::main(0);
  i.dest = std::nullopt;
  p.push(i);
  const auto rep = verify_program(p, default_geometry());
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has(rep, DiagKind::MissingDest));
}

TEST(Verifier, FlagsIgnoredDest) {
  // SUB drives its result out, MULT leaves it in D2, logic drives it out:
  // a destination on any of them is an error.
  Instruction sub{.op = Op::Sub, .a = RowRef::main(0), .b = RowRef::main(1),
                  .dest = RowRef::dummy(0), .bits = 8};
  Instruction mult = sub;
  mult.op = Op::Mult;
  Instruction logic = sub;
  logic.op = Op::And;
  logic.logic_fn = LogicFn::Xor;
  for (const Instruction& i : {sub, mult, logic}) {
    Program p;
    p.push(i);
    const auto rep = verify_program(p, default_geometry());
    EXPECT_FALSE(rep.ok()) << to_string(i);
    ASSERT_EQ(rep.diagnostics.size(), 1u) << rep.to_string();
    EXPECT_EQ(rep.diagnostics[0].kind, DiagKind::DestIgnored);
  }
}

TEST(Verifier, FlagsUnsupportedPrecision) {
  Program p;
  Instruction i;
  i.op = Op::Add;
  i.a = RowRef::main(0);
  i.b = RowRef::main(1);
  i.bits = 5;
  p.push(i);
  Instruction z = i;
  z.bits = 0;
  p.push(z);
  const auto rep = verify_program(p, default_geometry());
  EXPECT_EQ(rep.diagnostics.size(), 2u);
  EXPECT_TRUE(has(rep, DiagKind::BadPrecision));
}

TEST(Verifier, FlagsFieldOverflowAndWidthMismatch) {
  ArrayGeometry narrow = default_geometry();
  narrow.cols = 16;
  Program overflow;
  overflow.mult(RowRef::main(0), RowRef::main(1), 16);  // 32-column units
  EXPECT_TRUE(has(verify_program(overflow, narrow), DiagKind::FieldOverflow));

  ArrayGeometry odd = default_geometry();
  odd.cols = 96;
  Program mismatch;
  mismatch.mult(RowRef::main(0), RowRef::main(1), 32);  // 64 does not divide 96
  EXPECT_TRUE(has(verify_program(mismatch, odd), DiagKind::WidthMismatch));
}

TEST(Verifier, ReportsFormatAsText) {
  Program p;
  p.add(RowRef::main(0), RowRef::main(300), 8);
  const auto rep = verify_program(p, default_geometry());
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("error[row-out-of-range] @#0"), std::string::npos) << text;
}

TEST(Verifier, AcceptsRandomBuilderPrograms) {
  Rng rng(0x5EED);
  constexpr std::array<unsigned, 3> kBits{4, 8, 16};
  for (int round = 0; round < 20; ++round) {
    Program p;
    for (int n = 0; n < 40; ++n) {
      const unsigned bits = kBits[rng.uniform_u64(kBits.size())];
      const auto ra = RowRef::main(rng.uniform_u64(6));
      auto rb = RowRef::main(rng.uniform_u64(6));
      if (rb == ra) rb = RowRef::main((rb.index + 1) % 6);
      switch (rng.uniform_u64(6)) {
        case 0: p.logic(LogicFn::Xor, ra, rb); break;
        case 1: p.unary(Op::Not, ra, RowRef::dummy(0), bits); break;
        case 2: p.add(ra, rb, bits); break;
        case 3: p.add_shift(ra, rb, bits, RowRef::dummy(2)); break;
        case 4: p.sub(ra, rb, bits); break;
        case 5: p.mult(ra, rb, bits); break;
      }
    }
    const auto rep = verify_program(p, default_geometry());
    EXPECT_TRUE(rep.ok()) << "round " << round << ":\n" << rep.to_string();
  }
}

TEST(Verifier, VerifyFirstRejectsBeforeTouchingTheMacro) {
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8)
      .mult(RowRef::dummy(1), RowRef::main(2), 8);  // role violation at #1

  ImcMacro macro{MacroConfig{}};
  MacroController ctl(macro, VerifyMode::VerifyFirst);
  EXPECT_THROW(ctl.run(p), std::invalid_argument);
  EXPECT_EQ(macro.total_cycles(), 0u);  // nothing executed, not even #0

  // A raw SUB with a destination is rejected too: the destination would be
  // silently ignored.
  Program sub_dest;
  sub_dest.push({.op = Op::Sub, .a = RowRef::main(0), .b = RowRef::main(1),
                 .dest = RowRef::main(2), .bits = 8});
  EXPECT_THROW(ctl.run(sub_dest), std::invalid_argument);
  EXPECT_EQ(macro.total_cycles(), 0u);
}

// A VerifiedProgram only comes out of the verifier or a compiler, and none
// of Program's mutators reach it.
template <class T>
concept ProgramMutable = requires(T& t, Instruction i) { t.push(i); } ||
                         requires(T& t) { t.add(RowRef::main(0), RowRef::main(1), 8u); };
static_assert(!std::is_constructible_v<VerifiedProgram, Program>);
static_assert(!std::is_constructible_v<VerifiedProgram, const Program&>);
static_assert(!std::is_convertible_v<Program, VerifiedProgram>);
static_assert(!std::is_default_constructible_v<VerifiedProgram>);
static_assert(ProgramMutable<Program>);
static_assert(!ProgramMutable<VerifiedProgram>);
static_assert(!ProgramMutable<const Program>);

TEST(VerifiedProgram, VerifySealsOnlyAcceptedPrograms) {
  const ArrayGeometry g = default_geometry();
  Program bad;
  bad.add(RowRef::main(3), RowRef::main(3), 8);  // IdenticalRows: an Error
  try {
    (void)VerifiedProgram::verify(bad, g);
    FAIL() << "expected the verifier to reject the program";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("identical-rows"), std::string::npos) << e.what();
  }

  // An ignored destination is rejected as well.
  Program ignored;
  Instruction sub;
  sub.op = Op::Sub;
  sub.a = RowRef::main(0);
  sub.b = RowRef::main(1);
  sub.dest = RowRef::main(2);  // DestIgnored
  ignored.push(sub);
  try {
    (void)VerifiedProgram::verify(ignored, g);
    FAIL() << "expected the verifier to reject the ignored destination";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dest-ignored"), std::string::npos) << e.what();
  }

  Program accepted;
  accepted.sub(RowRef::main(0), RowRef::main(1), 8);
  const VerifiedProgram v = VerifiedProgram::verify(accepted, g);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.geometry(), g);
}

TEST(VerifiedProgram, RunRejectsAnotherGeometryBeforeTouchingTheMacro) {
  ArrayGeometry wide = default_geometry();
  wide.cols = 256;
  OpCompiler oc(wide);
  const VerifiedProgram& p = oc.mult(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_EQ(p.geometry(), wide);

  ImcMacro narrow{MacroConfig{}};
  ASSERT_NE(narrow.config().geometry, wide);
  narrow.poke_mult_operand(0, 0, 8, 7);
  narrow.poke_mult_operand(1, 0, 8, 6);
  MacroController ctl(narrow);
  Extract record;
  EXPECT_THROW(ctl.run(p, {}, {&record, 1}), std::invalid_argument);
  EXPECT_EQ(record.cycles, 0u);
  EXPECT_EQ(narrow.total_cycles(), 0u);
  EXPECT_EQ(narrow.total_energy().si(), 0.0);
  EXPECT_EQ(narrow.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)).popcount(), 0u);

  // On its own geometry the same program runs.
  MacroConfig cfg;
  cfg.geometry = wide;
  ImcMacro match{cfg};
  match.poke_mult_operand(0, 0, 8, 7);
  match.poke_mult_operand(1, 0, 8, 6);
  MacroController match_ctl(match);
  std::uint64_t product = 0;
  record = Extract{.bits = 8, .values = {&product, 1}};
  EXPECT_EQ(match_ctl.run(p, {}, {&record, 1}).cycles, 10u);
  EXPECT_EQ(product, 42u);
  EXPECT_EQ(record.cycles, 10u);
}

}  // namespace
}  // namespace bpim::macro
