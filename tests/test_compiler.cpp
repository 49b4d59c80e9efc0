// FusionCompiler: emitted programs are verifier-clean, residency-aware,
// and priced correctly on the chained-MAC path.

#include <gtest/gtest.h>

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

TEST(FusionCompiler, MacForwardMayReadPinnedRowsButChainMayNotClobber) {
  const ArrayGeometry g{};
  // Rows [100, 120) pinned, the residency map's shape.
  const std::vector<PinnedRows> pinned{{100, 20}};
  FusionCompiler fc(g, pinned);

  // Reading pinned weight rows is the whole point: clean emission.
  MacForwardSpec fwd;
  fwd.bits = 8;
  fwd.steps = {{0, 104}, {0, 106}};
  EXPECT_NO_THROW((void)fc.compile_mac_forward(fwd));

  // An ADD-Shift chain retires into its own a_row; pointing that at a
  // pinned row must be rejected (ResidentClobber) with the disassembly.
  ChainSpec chain;
  chain.bits = 8;
  ChainLayerSpec layer;
  layer.a_row = 110;  // pinned -- the final write-back would corrupt it
  layer.b_row = 0;
  layer.links = {{ChainLinkKind::AddShift, 2}};
  chain.layers = {layer};
  try {
    (void)fc.compile_chain(chain);
    FAIL() << "expected compile_chain to reject the pinned-row write-back";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resident-clobber"), std::string::npos) << e.what();
    // The rejection text is the annotated disassembly.
    EXPECT_NE(std::string(e.what()).find("ADD-Shift"), std::string::npos) << e.what();
  }
}

TEST(FusionCompiler, ChainEmissionShapesLinksAroundD2) {
  const ArrayGeometry g{};
  FusionCompiler fc(g);
  ChainSpec spec;
  spec.bits = 4;  // links at 8-bit
  ChainLayerSpec layer;
  layer.a_row = 0;
  layer.b_row = 1;
  layer.links = {{ChainLinkKind::Add, 2}, {ChainLinkKind::Add, 3}};
  spec.layers = {layer};
  const Program p = fc.compile_chain(spec);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.instructions()[0].op, Op::Mult);
  // Intermediate link accumulates back into D2; final link drives out.
  ASSERT_TRUE(p.instructions()[1].dest.has_value());
  EXPECT_EQ(p.instructions()[1].dest->kind, RowRef::Kind::Dummy);
  EXPECT_EQ(p.instructions()[1].bits, 8u);
  EXPECT_FALSE(p.instructions()[2].dest.has_value());
  const VerifyReport rep = verify_program(p, g);
  EXPECT_EQ(rep.errors, 0u);
  EXPECT_EQ(rep.warnings, 0u);
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
  ChainSpec no_links;
  no_links.bits = 8;
  no_links.layers = {{0, 1, {}}};
  EXPECT_THROW((void)fc.compile_chain(no_links), std::invalid_argument);
  ChainSpec wide;  // 32-bit head needs 64-bit links, which the ISA lacks
  wide.bits = 32;
  wide.layers = {{0, 1, {{ChainLinkKind::Add, 2}}}};
  EXPECT_THROW((void)fc.compile_chain(wide), std::invalid_argument);
}

TEST(FusionCompiler, FuzzedSpecsAlwaysEmitZeroDiagnosticPrograms) {
  // The tentpole's contract: whatever layout the engine asks for, the
  // emitted program must survive the residency-aware verifier with zero
  // diagnostics -- warnings included -- and execute under VerifyFirst.
  const ArrayGeometry g{};
  bpim::Rng rng(0xF05Ed);
  const unsigned precisions[] = {2, 4, 8, 16};
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned bits = precisions[rng.uniform_u64(4)];
    // Pinned band in the top half, like the residency allocator produces.
    const std::size_t pinned_rows = 2 * (1 + rng.uniform_u64(20));
    const std::size_t pinned_base = g.rows - pinned_rows;
    FusionCompiler fc(g, {{pinned_base, pinned_rows}});

    if (trial % 2 == 0) {
      MacForwardSpec spec;
      spec.bits = bits;
      const std::size_t layers = 1 + rng.uniform_u64(3);
      const std::size_t ops = 1 + rng.uniform_u64(6);
      for (std::size_t l = 0; l < layers; ++l)
        for (std::size_t j = 0; j < ops; ++j)
          spec.steps.push_back({2 * l, pinned_base + 2 * ((j + l) % (pinned_rows / 2))});
      const Program p = fc.compile_mac_forward(spec);
      const VerifyReport rep =
          verify_program(p, g, std::span<const PinnedRows>(fc.pinned()));
      EXPECT_EQ(rep.errors, 0u) << rep.annotate(p);
      EXPECT_EQ(rep.warnings, 0u) << rep.annotate(p);
      EXPECT_LE(FusionCompiler::fused_static_cycles(p), p.static_cycles());
    } else if (2 * bits <= 32) {
      ChainSpec spec;
      spec.bits = bits;
      const std::size_t links = 1 + rng.uniform_u64(3);
      const std::size_t pairs = (2 + links + 1) / 2;
      const std::size_t layers = 1 + rng.uniform_u64(3);
      for (std::size_t l = 0; l < layers; ++l) {
        ChainLayerSpec layer;
        layer.a_row = 2 * pairs * l;
        layer.b_row = layer.a_row + 1;
        for (std::size_t j = 0; j < links; ++j) {
          const bool last = j + 1 == links;
          const bool shift = last && rng.uniform_u64(2) == 0;
          layer.links.emplace_back(shift ? ChainLinkKind::AddShift : ChainLinkKind::Add,
                                   layer.a_row + 2 + j);
        }
        spec.layers.push_back(std::move(layer));
      }
      const Program p = fc.compile_chain(spec);
      const VerifyReport rep =
          verify_program(p, g, std::span<const PinnedRows>(fc.pinned()));
      EXPECT_EQ(rep.errors, 0u) << rep.annotate(p);
      EXPECT_EQ(rep.warnings, 0u) << rep.annotate(p);
    }
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

TEST(OpCompiler, SetPinnedClearsCache) {
  const ArrayGeometry g{};
  OpCompiler oc(g);
  (void)oc.add(RowRef::main(0), RowRef::main(1), 8);
  oc.set_pinned({{100, 20}});
  // The stale program is gone: the same request recompiles against the new
  // residency map instead of hitting the old entry.
  (void)oc.add(RowRef::main(0), RowRef::main(1), 8);
  const auto stats = oc.cache_stats();
  EXPECT_EQ(stats.compiled, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

}  // namespace
}  // namespace bpim::macro
