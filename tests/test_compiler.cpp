// FusionCompiler: emitted programs are verifier-clean (also against the
// pinned rows they read), priced correctly on the chained-MAC path, and
// relocate under exactly the checks the verifier makes. OpCompiler:
// single-op programs are cached and reject pinned-row writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "macro/compiler.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {
namespace {

using array::ArrayGeometry;
using array::RowRef;

TEST(FusionCompiler, MacForwardEmitsOneMultPerStepZeroDiagnostics) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  MacForwardSpec spec;
  spec.bits = 8;
  // One activation row (0) against three weight rows -- the adjacency that
  // unlocks the chained-datapath discount.
  spec.steps = {{0, 10}, {0, 12}, {0, 14}};
  const Program p = fc.compile_mac_forward(spec);
  ASSERT_EQ(p.size(), 3u);
  for (const Instruction& i : p.instructions()) {
    EXPECT_EQ(i.op, Op::Mult);
    EXPECT_EQ(i.bits, 8u);
    EXPECT_FALSE(i.dest.has_value());
  }
  const VerifyReport rep = verify_program(p, g);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_EQ(rep.warnings, 0u);
}

TEST(FusionCompiler, FusedStaticCyclesDiscountsChainedMacs) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  MacForwardSpec spec;
  spec.bits = 8;  // MULT = N + 2 = 10 cycles per Table 1
  spec.steps = {{0, 10}, {0, 12}, {2, 14}};
  const Program p = fc.compile_mac_forward(spec);
  // #0 full price; #1 pipelined (-1) and D1-staged (-1, same a_row); #2
  // pipelined only (new activation row re-stages D1).
  EXPECT_EQ(p.static_cycles(), 30u);
  EXPECT_EQ(FusionCompiler::fused_static_cycles(p), 10u + 8u + 9u);
}

TEST(FusionCompiler, DumpNamesOpsRowsAndRoles) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  MacForwardSpec spec;
  spec.bits = 8;
  spec.steps = {{0, 10}};
  const std::string text = fc.compile_mac_forward(spec).program().dump();
  EXPECT_NE(text.find("MULT"), std::string::npos) << text;
  EXPECT_NE(text.find("R0"), std::string::npos) << text;
  EXPECT_NE(text.find("R10"), std::string::npos) << text;
  EXPECT_NE(text.find("D2"), std::string::npos) << text;  // product role
}

TEST(FusionCompiler, RejectsDegenerateSpecs) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  EXPECT_THROW((void)fc.compile_mac_forward({8, {}}), std::invalid_argument);
  EXPECT_THROW((void)fc.compile_mac_forward({8, {{5, 5}}}), std::invalid_argument);
  EXPECT_THROW((void)fc.compile_mac_forward({3, {{0, 1}}}), std::invalid_argument);
}

TEST(FusionCompiler, FuzzedSpecsAlwaysEmitZeroDiagnosticPrograms) {
  // Whatever layout the engine asks for, the emitted program reads the
  // weights' pinned band in place and must still verify against that band
  // (residency-aware) with zero diagnostics -- warnings included.
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  bpim::Rng rng(0xF05Ed);
  const unsigned precisions[] = {2, 4, 8, 16};
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned bits = precisions[rng.uniform_u64(4)];
    // Pinned band in the top half, like the residency allocator produces.
    const std::size_t pinned_rows = 2 * (1 + rng.uniform_u64(20));
    const std::size_t pinned_base = g.rows - pinned_rows;
    const std::vector<PinnedRows> pinned{{pinned_base, pinned_rows}};

    MacForwardSpec spec;
    spec.bits = bits;
    const std::size_t layers = 1 + rng.uniform_u64(3);
    const std::size_t ops = 1 + rng.uniform_u64(6);
    for (std::size_t l = 0; l < layers; ++l)
      for (std::size_t j = 0; j < ops; ++j)
        spec.steps.push_back({2 * l, pinned_base + 2 * ((j + l) % (pinned_rows / 2))});
    const Program p = fc.compile_mac_forward(spec);
    const VerifyReport rep = verify_program(p, g, std::span<const PinnedRows>(pinned));
    EXPECT_EQ(rep.errors, 0u) << rep.annotate(p);
    EXPECT_EQ(rep.warnings, 0u) << rep.annotate(p);
    EXPECT_LE(FusionCompiler::fused_static_cycles(p), p.static_cycles());
  }
}

TEST(FusionCompiler, FuzzedForwardExecutesBitIdenticalToReference) {
  // Execute fuzzed MAC-forward programs on a live macro under VerifyFirst
  // and check every traced product against host arithmetic.
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
    MacForwardSpec spec;
    spec.bits = 8;
    for (std::size_t j = 0; j < ops; ++j) {
      for (auto& v : weights[j]) v = rng.uniform_u64(256);
      m.poke_mult_operands(2 * (j + 1), 0, 8, weights[j]);
      spec.steps.push_back({0, 2 * (j + 1)});
    }
    const FusionCompiler fc(m.config().geometry);
    const VerifiedProgram p = fc.compile_mac_forward(spec);
    MacroController ctl(m);
    std::vector<TraceEntry> trace;
    const ProgramStats stats = ctl.run(p, &trace, /*fuse_mac_chains=*/true);
    EXPECT_EQ(stats.cycles + stats.fused_cycles_saved, p.program().static_cycles());
    ASSERT_EQ(trace.size(), ops);
    for (std::size_t j = 0; j < ops; ++j)
      for (std::size_t i = 0; i < units; ++i)
        EXPECT_EQ(m.peek_mult_product(trace[j].result, i, 8),
                  activation[i] * weights[j][i])
            << "trial " << trial << " op " << j << " unit " << i;
  }
}

TEST(FusionCompiler, RelocatedForwardEqualsAFreshCompileAtItsRows) {
  // Seeded differential of RelocatableForward::bind against the full
  // verifier: every legal binding (weight pairs above the activation's,
  // rows in range) equals what compile_mac_forward emits for those rows and
  // verifies with zero diagnostics; an out-of-range or activation-colliding
  // base throws, leaves the program as last bound, and is a binding the
  // verifier rejects too.
  const ArrayGeometry g{};
  const FusionCompiler fc(g);
  const std::size_t pairs = g.rows / 2;
  const unsigned precisions[] = {2, 4, 8};
  bpim::Rng rng(0x4E10C);
  const auto steps_at = [](std::span<const std::size_t> bases, std::size_t layers) {
    std::vector<MacStep> steps;
    for (std::size_t l = 0; l < layers; ++l)
      for (const std::size_t b : bases) steps.push_back({2 * l, 2 * (b + l)});
    return steps;
  };
  for (int trial = 0; trial < 100; ++trial) {
    const unsigned bits = precisions[rng.uniform_u64(3)];
    const std::size_t weights = 1 + rng.uniform_u64(8);
    const std::size_t layers = 1 + rng.uniform_u64(4);
    RelocatableForward rf = fc.compile_relocatable_forward(bits, weights, layers);
    ASSERT_EQ(rf.program().size(), weights * layers);
    std::vector<std::size_t> bases(weights);
    for (int rebind = 0; rebind < 5; ++rebind) {
      for (auto& b : bases) b = 1 + rng.uniform_u64(pairs - layers);
      const VerifiedProgram& p = rf.bind(bases);
      const VerifiedProgram fresh =
          fc.compile_mac_forward({.bits = bits, .steps = steps_at(bases, layers)});
      ASSERT_EQ(p.program().dump(), fresh.program().dump()) << "trial " << trial;
      const VerifyReport rep = verify_program(p, g);
      EXPECT_EQ(rep.errors + rep.warnings, 0u) << rep.annotate(p);
    }

    const std::string bound = rf.program().program().dump();
    std::vector<std::size_t> bad = bases;
    bad[rng.uniform_u64(weights)] =
        rng.uniform_u64(2) == 0 ? 0 : pairs - layers + 1 + rng.uniform_u64(8);
    EXPECT_THROW((void)rf.bind(bad), std::invalid_argument) << "trial " << trial;
    EXPECT_EQ(rf.program().program().dump(), bound) << "trial " << trial;
    EXPECT_TRUE(std::ranges::equal(rf.bases(), bases)) << "trial " << trial;
    Program raw;
    for (const MacStep& st : steps_at(bad, layers))
      raw.push({.op = Op::Mult, .a = RowRef::main(st.a_row), .b = RowRef::main(st.b_row), .bits = bits});
    EXPECT_GT(verify_program(raw, g).errors, 0u) << "trial " << trial;
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
    EXPECT_EQ(rep.errors, 0u) << rep.annotate(*p);
    EXPECT_EQ(rep.warnings, 0u) << rep.annotate(*p);
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

TEST(OpCompiler, RejectsVerifierDiagnosticsAndPinnedClobber) {
  const ArrayGeometry g{};
  // Dual-WL compute needs two distinct rows; same-row draws a diagnostic.
  OpCompiler plain(g);
  EXPECT_THROW((void)plain.add(RowRef::main(3), RowRef::main(3), 8),
               std::invalid_argument);

  // Rows [100, 120) pinned: reading them is fine, writing them is not.
  OpCompiler oc(g, {{100, 20}});
  EXPECT_NO_THROW((void)oc.mult(RowRef::main(0), RowRef::main(104), 8));
  try {
    (void)oc.unary(Op::Copy, RowRef::main(0), RowRef::main(104), 8);
    FAIL() << "expected the pinned-row write to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resident-clobber"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bpim::macro
