// FusionCompiler: emitted programs are verifier-clean, priced on the
// chained-MAC path by CostModel::program_cost, and relocate under exactly the
// checks the verifier makes. OpCompiler: single-op programs are cached and
// sealed only with zero diagnostics.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "macro/compiler.hpp"
#include "macro/cost_model.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "priced_ledger.hpp"

namespace bpim::macro {
namespace {

using array::ArrayGeometry;
using array::RowRef;

/// The MAC forward of weights stacked at `bases` over `layers` chunks, built
/// instruction by instruction: MAC (l, j) multiplies activation row 2l by
/// weight row 2(bases[j] + l).
Program forward_at(unsigned bits, std::span<const std::size_t> bases, std::size_t layers) {
  Program p;
  for (std::size_t l = 0; l < layers; ++l)
    for (const std::size_t b : bases) p.mult(RowRef::main(2 * l), RowRef::main(2 * (b + l)), bits);
  return p;
}

TEST(FusionCompiler, MacForwardEmitsOneMultPerStepZeroDiagnostics) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  // One activation row (0) against three weight rows -- the adjacency that
  // unlocks the chained-datapath discount.
  const RelocatableForward rf = fc.compile_relocatable_forward(8, 3, 1);
  const Program& p = rf.program();
  ASSERT_EQ(p.size(), 3u);
  for (std::size_t j = 0; j < p.size(); ++j) {
    const Instruction& i = p.instructions()[j];
    EXPECT_EQ(i.op, Op::Mult);
    EXPECT_EQ(i.bits, 8u);
    EXPECT_EQ(i.a, RowRef::main(0));
    EXPECT_EQ(i.b, RowRef::main(2 * (j + 1)));
    EXPECT_FALSE(i.dest.has_value());
  }
  const VerifyReport rep = verify_program(p, g);
  EXPECT_TRUE(rep.ok()) << rep.annotate(p);
}

TEST(FusionCompiler, FusedStaticCyclesDiscountsChainedMacs) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  // J = 2 weights over L = 2 layers at 8 bits (MULT = N + 2 = 10 cycles per
  // Table 1): (0, 0) full price; (0, 1) pipelined (-1) and D1-staged (-1,
  // same activation row); (1, 0) pipelined only (the next layer's activation
  // re-stages D1); (1, 1) pipelined and D1-staged.
  const RelocatableForward rf = fc.compile_relocatable_forward(8, 2, 2);
  const Program& p = rf.program();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.static_cycles(), 40u);
  const ProgramStats fused = CostModel(MacroConfig{}).program_cost(p);
  EXPECT_EQ(fused.cycles, 10u + 8u + 9u + 8u);
  EXPECT_EQ(fused.cycles + fused.fused_cycles_saved, p.static_cycles());
}

TEST(FusionCompiler, DumpNamesOpsRowsAndRoles) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  const std::string text = fc.compile_relocatable_forward(8, 1, 1).program().program().dump();
  EXPECT_NE(text.find("MULT"), std::string::npos) << text;
  EXPECT_NE(text.find("R0"), std::string::npos) << text;
  EXPECT_NE(text.find("R2"), std::string::npos) << text;
  EXPECT_NE(text.find("D2"), std::string::npos) << text;  // product role
}

TEST(FusionCompiler, RejectsDegenerateSpecs) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  EXPECT_THROW((void)fc.compile_relocatable_forward(8, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)fc.compile_relocatable_forward(8, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)fc.compile_relocatable_forward(3, 1, 1), std::invalid_argument);
  // Weights stacked above the activation past the array's last row.
  EXPECT_THROW((void)fc.compile_relocatable_forward(8, g.rows / 2, 1), std::invalid_argument);
}

TEST(FusionCompiler, FuzzedSpecsAlwaysEmitZeroDiagnosticPrograms) {
  // Whatever shape and placement the engine asks for, the bound program
  // must verify with zero diagnostics, and the chained datapath never
  // prices it above Table 1.
  const ArrayGeometry g{};
  const FusionCompiler fc(g);
  const CostModel cost{MacroConfig{}};
  const std::size_t pairs = g.rows / 2;
  bpim::Rng rng(0xF05Ed);
  const unsigned precisions[] = {2, 4, 8, 16};
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned bits = precisions[rng.uniform_u64(4)];
    const std::size_t weights = 1 + rng.uniform_u64(6);
    const std::size_t layers = 1 + rng.uniform_u64(3);
    RelocatableForward rf = fc.compile_relocatable_forward(bits, weights, layers);
    std::vector<std::size_t> bases(weights);
    for (auto& b : bases) b = layers + rng.uniform_u64(pairs - 2 * layers + 1);
    const Program& p = rf.bind(bases);
    const VerifyReport rep = verify_program(p, g);
    EXPECT_TRUE(rep.ok()) << rep.annotate(p);
    EXPECT_LE(cost.program_cost(p).cycles, p.static_cycles());
  }
}

TEST(FusionCompiler, FuzzedForwardExecutesBitIdenticalToReference) {
  // Execute fuzzed MAC-forward programs on a live macro under VerifyFirst
  // and check every retired product against host arithmetic.
  ImcMacro m{MacroConfig{}};
  const std::size_t units = m.mult_units_per_row(8);
  bpim::Rng rng(0xBEEF);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t ops = 1 + rng.uniform_u64(4);
    std::vector<std::uint64_t> activation(units);
    for (auto& v : activation) v = rng.uniform_u64(256);
    m.poke_mult_operands(0, 0, 8, activation);
    std::vector<std::vector<std::uint64_t>> weights(ops,
                                                    std::vector<std::uint64_t>(units));
    // One layer: weight j sits at row 2(j + 1), the compiler's default stack.
    for (std::size_t j = 0; j < ops; ++j) {
      for (auto& v : weights[j]) v = rng.uniform_u64(256);
      m.poke_mult_operands(2 * (j + 1), 0, 8, weights[j]);
    }
    const FusionCompiler fc(m.config().geometry);
    const RelocatableForward rf = fc.compile_relocatable_forward(8, ops, 1);
    const VerifiedProgram& p = rf.program();
    MacroController ctl(m);
    RowCapture cap(p.program(), m.cols());
    const ProgramStats stats = ctl.run(p, {}, cap.records());
    EXPECT_EQ(stats.cycles + stats.fused_cycles_saved, p.program().static_cycles());
    ASSERT_EQ(cap.size(), ops);
    for (std::size_t j = 0; j < ops; ++j)
      for (std::size_t i = 0; i < units; ++i)
        EXPECT_EQ(cap[j].values[i], activation[i] * weights[j][i])
            << "trial " << trial << " op " << j << " unit " << i;
  }
}

TEST(FusionCompiler, RelocatedForwardEqualsAFreshCompileAtItsRows) {
  // Seeded differential of RelocatableForward::bind against the full
  // verifier: every legal binding (weight pairs above the activation's,
  // rows in range) equals the MAC program built directly at those rows and
  // verifies with zero diagnostics; an out-of-range or activation-colliding
  // base throws, leaves the program as last bound, and is a binding the
  // verifier rejects too.
  const ArrayGeometry g{};
  const FusionCompiler fc(g);
  const std::size_t pairs = g.rows / 2;
  const unsigned precisions[] = {2, 4, 8};
  bpim::Rng rng(0x4E10C);
  for (int trial = 0; trial < 100; ++trial) {
    const unsigned bits = precisions[rng.uniform_u64(3)];
    const std::size_t weights = 1 + rng.uniform_u64(8);
    const std::size_t layers = 1 + rng.uniform_u64(4);
    RelocatableForward rf = fc.compile_relocatable_forward(bits, weights, layers);
    ASSERT_EQ(rf.program().size(), weights * layers);
    // Sealed runs: layer l's J MULTs share activation row 2l, and a bind
    // moves only weight rows, so the partition and the seal survive it.
    const std::uint64_t seal = rf.program().seal_id();
    const auto expect_layer_runs = [&] {
      for (std::size_t k = 0; k < weights * layers; ++k)
        EXPECT_EQ(rf.program().run_end(k), (k / weights + 1) * weights)
            << "trial " << trial << " #" << k;
      EXPECT_EQ(rf.program().seal_id(), seal) << "trial " << trial;
    };
    expect_layer_runs();
    std::vector<std::size_t> bases(weights);
    for (int rebind = 0; rebind < 5; ++rebind) {
      for (auto& b : bases) b = 1 + rng.uniform_u64(pairs - layers);
      const VerifiedProgram& p = rf.bind(bases);
      ASSERT_EQ(p.program().dump(), forward_at(bits, bases, layers).dump()) << "trial " << trial;
      const VerifyReport rep = verify_program(p, g);
      EXPECT_TRUE(rep.ok()) << rep.annotate(p);
      expect_layer_runs();
    }

    const std::string bound = rf.program().program().dump();
    std::vector<std::size_t> bad = bases;
    bad[rng.uniform_u64(weights)] =
        rng.uniform_u64(2) == 0 ? 0 : pairs - layers + 1 + rng.uniform_u64(8);
    EXPECT_THROW((void)rf.bind(bad), std::invalid_argument) << "trial " << trial;
    EXPECT_EQ(rf.program().program().dump(), bound) << "trial " << trial;
    EXPECT_TRUE(std::ranges::equal(rf.bases(), bases)) << "trial " << trial;
    EXPECT_FALSE(verify_program(forward_at(bits, bad, layers), g).ok()) << "trial " << trial;
  }
}

TEST(OpCompiler, EmitsVerifiedSingleOpProgramsForEveryKind) {
  const ArrayGeometry g{};
  OpCompiler oc(g);
  const RowRef d1 = RowRef::dummy(1);
  const RowRef d2 = RowRef::dummy(2);
  const VerifiedProgram* programs[] = {
      &oc.add(RowRef::main(0), RowRef::main(1), 8),
      &oc.sub(RowRef::main(0), RowRef::main(1), 8),
      &oc.mult(RowRef::main(0), RowRef::main(1), 8),
      &oc.add_shift(RowRef::main(0), RowRef::main(1), 8, d2),
      &oc.unary(Op::Not, RowRef::main(0), d1, 8),
      &oc.logic(periph::LogicFn::Xor, RowRef::main(0), RowRef::main(1)),
  };
  for (const VerifiedProgram* p : programs) {
    ASSERT_EQ(p->size(), 1u);
    const VerifyReport rep = verify_program(*p, g);
    EXPECT_TRUE(rep.ok()) << rep.annotate(*p);
  }
  EXPECT_EQ(oc.cache_stats().compiled, 6u);
  EXPECT_EQ(oc.cache_stats().hits, 0u);
}

TEST(OpCompiler, CachesByKindBitsAndPlacement) {
  const ArrayGeometry g{};
  OpCompiler oc(g);
  const VerifiedProgram& first = oc.add(RowRef::main(0), RowRef::main(1), 8);
  // Same (kind, bits, rows) -> the identical cached object, counted as a hit.
  EXPECT_EQ(&oc.add(RowRef::main(0), RowRef::main(1), 8), &first);
  // Different bits or placement -> distinct programs, counted as misses.
  EXPECT_NE(&oc.add(RowRef::main(0), RowRef::main(1), 4), &first);
  EXPECT_NE(&oc.add(RowRef::main(2), RowRef::main(3), 8), &first);
  const auto stats = oc.cache_stats();
  EXPECT_EQ(stats.compiled, 3u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(OpCompiler, RejectsVerifierDiagnostics) {
  const ArrayGeometry g{};
  OpCompiler oc(g);
  // Dual-WL compute needs two distinct rows; same-row draws an error.
  EXPECT_THROW((void)oc.add(RowRef::main(3), RowRef::main(3), 8), std::invalid_argument);
  // SUB drives its result out, so a destination would be ignored
  // (dest-ignored): rejected too.
  try {
    (void)oc.single({.op = Op::Sub, .a = RowRef::main(0), .b = RowRef::main(1),
                     .dest = RowRef::main(2), .bits = 8});
    FAIL() << "expected the ignored destination to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dest-ignored"), std::string::npos) << e.what();
  }
  EXPECT_EQ(oc.cache_stats().compiled, 0u);
}

}  // namespace
}  // namespace bpim::macro
