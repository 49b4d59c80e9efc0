// Differential tests: the word-parallel (SWAR) datapath against the seed's
// per-bit reference (baseline/naive_datapath), randomized across precisions
// and row widths -- including widths that are not a multiple of the 64-bit
// storage word and precisions that do not divide 64 (the chunked fallback).
//
// The program-path sweep at the bottom runs every op kind through the
// unified execution model (OpCompiler -> MacroController) against a twin
// macro driven by direct datapath calls AND against the naive per-bit
// oracles -- the differential that keeps the refactored dispatch honest.
// Every program-path instruction is also priced by macro::CostModel to its
// ledger entry exactly (macro::expect_priced_as_executed).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "baseline/naive_datapath.hpp"
#include "common/rng.hpp"
#include "macro/compiler.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "periph/falogics.hpp"
#include "priced_ledger.hpp"

namespace bpim {
namespace {

using array::BlReadout;
using array::RowRef;
using baseline::naive_add;
using baseline::naive_mult_datapath;
using periph::AddResult;
using periph::FaLogics;

BlReadout random_readout(std::size_t width, Rng& rng) {
  BitVector a(width), b(width);
  a.randomize(rng);
  b.randomize(rng);
  return BlReadout{a & b, ~(a | b)};
}

void expect_add_matches(std::size_t width, unsigned precision, bool carry_in, Rng& rng) {
  const BlReadout r = random_readout(width, rng);
  const AddResult fast = FaLogics::add(r, precision, carry_in);
  const AddResult ref = naive_add(r, precision, carry_in);
  EXPECT_EQ(fast.sum, ref.sum) << "sum w=" << width << " p=" << precision << " cin=" << carry_in;
  EXPECT_EQ(fast.carry, ref.carry)
      << "carry w=" << width << " p=" << precision << " cin=" << carry_in;
  EXPECT_EQ(fast.word_carry, ref.word_carry)
      << "word_carry w=" << width << " p=" << precision << " cin=" << carry_in;
}

TEST(HotPathDiff, AddMatchesReferenceAtSupportedPrecisions) {
  Rng rng(0xADD);
  for (const std::size_t width : {64u, 128u, 256u}) {
    for (const unsigned precision : {2u, 4u, 8u, 16u, 32u}) {
      for (const bool cin : {false, true})
        for (int rep = 0; rep < 25; ++rep) expect_add_matches(width, precision, cin, rng);
    }
  }
}

TEST(HotPathDiff, AddMatchesReferenceAtOddWordBoundaries) {
  // Row widths that are not a multiple of 64: the top storage word is
  // partial, and ~bl_nor has garbage above the row that must not leak in.
  Rng rng(0x0DD);
  struct Case {
    std::size_t width;
    unsigned precision;
  };
  for (const Case c : {Case{96, 4}, Case{96, 8}, Case{96, 16}, Case{80, 8}, Case{80, 16},
                       Case{72, 8}, Case{200, 8}, Case{120, 4}}) {
    for (const bool cin : {false, true})
      for (int rep = 0; rep < 25; ++rep) expect_add_matches(c.width, c.precision, cin, rng);
  }
}

TEST(HotPathDiff, AddMatchesReferenceOnChunkedFallback) {
  // Precisions that do not divide 64 (or exceed it) take the chunked path:
  // fields straddle storage words and carries propagate between chunks.
  Rng rng(0xC44);
  struct Case {
    std::size_t width;
    unsigned precision;
  };
  for (const Case c : {Case{96, 3}, Case{96, 12}, Case{96, 24}, Case{96, 96}, Case{90, 5},
                       Case{128, 128}, Case{192, 96}, Case{256, 128}, Case{130, 65}}) {
    for (const bool cin : {false, true})
      for (int rep = 0; rep < 25; ++rep) expect_add_matches(c.width, c.precision, cin, rng);
  }
}

TEST(HotPathDiff, AddChainSpansFullField) {
  // All-ones + 1 ripples the carry through an entire >64-bit field.
  const std::size_t width = 128;
  BitVector a(width), b(width);
  a.fill(true);
  const BlReadout r{a & b, ~(a | b)};
  const AddResult fast = FaLogics::add(r, 128, true);
  const AddResult ref = naive_add(r, 128, true);
  EXPECT_EQ(fast.sum, ref.sum);
  EXPECT_EQ(fast.carry, ref.carry);
  EXPECT_EQ(fast.word_carry, ref.word_carry);
  EXPECT_EQ(fast.sum.popcount(), 0u);  // ...1111 + 1 == 0 with carry-out
  EXPECT_TRUE(fast.word_carry.get(127));
}

std::uint64_t sparse_operand(Rng& rng, unsigned bits, int zero_pct) {
  if (static_cast<int>(rng.next_u64() % 100) < zero_pct) return 0;
  return rng.next_u64() & ((1ull << bits) - 1);
}

macro::MacroConfig geometry_cfg(std::size_t cols) {
  macro::MacroConfig cfg;
  cfg.geometry.cols = cols;
  return cfg;
}

TEST(HotPathDiff, MultRowsMatchesReferenceAndHostProducts) {
  // 288, 320 and 512 columns take BitVector's heap storage (288 is not a
  // multiple of the 64-bit word); 2-bit is the MLP's narrowest layer and
  // 32-bit fills a whole storage word per unit. With `garbage`, the high
  // half of every unit of both operand rows holds random bits: the datapath
  // must read only the low halves (the multiplier's FF bits, the masked
  // multiplicand), plain and adaptive alike.
  Rng rng(0x3117);
  for (const std::size_t cols : {128u, 96u, 256u, 288u, 320u, 512u}) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      if (cols % (2 * bits) != 0) continue;
      macro::ImcMacro m{geometry_cfg(cols)};
      const std::size_t units = m.mult_units_per_row(bits);
      const std::uint64_t low = (1ull << bits) - 1;
      for (const bool garbage : {false, true}) {
        for (int rep = 0; rep < 10; ++rep) {
          std::vector<std::uint64_t> va(units), vb(units);
          BitVector row_a(cols), row_b(cols);
          if (garbage) {
            row_a.randomize(rng);
            row_b.randomize(rng);
          }
          for (std::size_t u = 0; u < units; ++u) {
            va[u] = rng.next_u64() & low;
            vb[u] = rng.next_u64() & low;
            row_a.deposit_bits(u * 2 * bits, bits, va[u]);
            row_b.deposit_bits(u * 2 * bits, bits, vb[u]);
          }
          m.poke_row(0, row_a);
          m.poke_row(1, row_b);
          const std::string what = "cols=" + std::to_string(cols) + " bits=" +
                                   std::to_string(bits) + (garbage ? " garbage" : "");
          const BitVector product = m.mult_rows(RowRef::main(0), RowRef::main(1), bits);
          EXPECT_EQ(product, naive_mult_datapath(row_a, row_b, bits)) << what;
          // Bulk extraction, whole row and a prefix, agrees with per unit.
          std::vector<std::uint64_t> bulk(units), prefix(units / 2 + 1);
          m.peek_mult_products(product, bits, bulk);
          m.peek_mult_products(product, bits, prefix);
          for (std::size_t u = 0; u < units; ++u) {
            EXPECT_EQ(m.peek_mult_product(product, u, bits), va[u] * vb[u])
                << what << " unit=" << u;
            EXPECT_EQ(bulk[u], va[u] * vb[u]) << what << " bulk unit=" << u;
            if (u < prefix.size()) {
              EXPECT_EQ(prefix[u], va[u] * vb[u]) << what << " unit=" << u;
            }
          }
          EXPECT_EQ(m.mult_rows(RowRef::main(0), RowRef::main(1), bits, {true, true}), product)
              << what << " adaptive";
        }
      }
    }
  }
}

// Max effectual multiplier depth of a MULT, straight from the definition:
// the widest multiplier half of any unit whose (masked) multiplicand is
// nonzero.
unsigned host_effectual_depth(const BitVector& row_a, const BitVector& row_b, unsigned bits) {
  unsigned depth = 0;
  for (std::size_t base = 0; base < row_a.size(); base += 2 * bits)
    if (row_a.extract_bits(base, bits) != 0)
      depth = std::max(depth,
                       static_cast<unsigned>(std::bit_width(row_b.extract_bits(base, bits))));
  return depth;
}

TEST(HotPathDiff, ChainLinksAndAdaptivePlansMatchReference) {
  // The closed-form product pass under every plan shape the controller can
  // ask for: a chain head that stages D1, then a pipelined link and a
  // d1-staged link reusing it, each under every policy -- against the
  // per-bit oracle, host products, and a host-computed effectual depth.
  // Operands are sparse and narrow so narrowed and skipped plans occur, and
  // the high halves hold garbage the datapath must ignore.
  const RowRef d1 = RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(macro::ImcMacro::kDummyAccum);
  const macro::AdaptivePolicy policies[] = {{}, {true, false}, {false, true}, {true, true}};
  Rng rng(0xC4A1);
  std::size_t narrowed = 0, skipped = 0;
  for (const std::size_t cols : {96u, 128u, 288u, 320u}) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      if (cols % (2 * bits) != 0) continue;
      macro::ImcMacro m{geometry_cfg(cols)};
      const std::size_t units = m.mult_units_per_row(bits);
      for (int rep = 0; rep < 12; ++rep) {
        // rep % 4: dense, narrow multipliers, all-zero multiplicand, zero
        // multipliers wherever the multiplicand is nonzero.
        const unsigned narrow = 1 + static_cast<unsigned>(rng.next_u64() % bits);
        BitVector row_a(cols), row_b1(cols), row_b2(cols);
        row_a.randomize(rng);
        row_b1.randomize(rng);
        row_b2.randomize(rng);
        for (std::size_t u = 0; u < units; ++u) {
          const std::size_t base = u * 2 * bits;
          std::uint64_t a = rng.next_u64() & ((1ull << bits) - 1);
          std::uint64_t b2 = rng.next_u64() & ((1ull << bits) - 1);
          if (rep % 4 == 1) b2 &= (1ull << narrow) - 1;
          if (rep % 4 == 2) a = 0;
          if (rep % 4 == 3 && a != 0) b2 = 0;
          row_a.deposit_bits(base, bits, a);
          row_b2.deposit_bits(base, bits, b2);
        }
        m.poke_row(0, row_a);
        m.poke_row(1, row_b1);
        m.poke_row(2, row_b2);
        BitVector masked_a(cols);
        for (std::size_t base = 0; base < cols; base += 2 * bits)
          masked_a.deposit_bits(base, bits, row_a.extract_bits(base, bits));
        const unsigned depth = host_effectual_depth(row_a, row_b2, bits);
        for (const macro::AdaptivePolicy policy : policies) {
          for (const bool d1_staged : {false, true}) {
            const std::string what = "cols=" + std::to_string(cols) +
                                     " bits=" + std::to_string(bits) +
                                     " rep=" + std::to_string(rep) +
                                     " narrow=" + std::to_string(policy.narrow_precision) +
                                     " skip=" + std::to_string(policy.skip_zero) +
                                     (d1_staged ? " d1-staged" : " pipelined");
            // The head stages the masked multiplicand in D1; the link either
            // re-stages it or multiplies D1 as it stands.
            (void)m.execute_mult(RowRef::main(0), RowRef::main(1), bits);
            ASSERT_EQ(m.sram().row(d1), masked_a) << what;
            const macro::MultPlan plan = m.execute_mult(
                RowRef::main(0), RowRef::main(2), bits, policy,
                d1_staged ? macro::MacLink::D1Staged : macro::MacLink::Pipelined);
            const BitVector& product = m.sram().row(d2);
            EXPECT_EQ(product, naive_mult_datapath(row_a, row_b2, bits)) << what;
            for (std::size_t u = 0; u < units; ++u)
              EXPECT_EQ(m.peek_mult_product(product, u, bits),
                        masked_a.extract_bits(u * 2 * bits, bits) *
                            row_b2.extract_bits(u * 2 * bits, bits))
                  << what << " unit=" << u;
            EXPECT_EQ(m.sram().row(d1), masked_a) << what;
            const bool skip = policy.skip_zero && depth == 0;
            EXPECT_EQ(plan.skip, skip) << what;
            EXPECT_EQ(plan.depth, skip ? 0u : policy.narrow_precision ? depth : bits) << what;
            EXPECT_EQ(plan.d1_staged, d1_staged) << what;
            EXPECT_EQ(m.last_op().cycles, plan.cycles()) << what;
            EXPECT_EQ(plan.cycles() + plan.fused_cycles_saved() + plan.adaptive_cycles_saved(bits),
                      bits + 2)
                << what;
            narrowed += plan.depth > 0 && plan.depth < bits ? 1 : 0;
            skipped += plan.skip ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(narrowed, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(HotPathDiff, MultOperandsAliasingScratchRowsMatchReference) {
  // The closed form writes its products straight into D2 and stages D1
  // only when its plan stages. An operand held in one of those rows must
  // still read as the sequencer sees it: D2 as cycle 1 zero-initialised it
  // (a D2 multiplicand or multiplier multiplies zero), D1 as it stands (a
  // d1-staged multiplicand). Each case runs after a MULT that leaves
  // nonzero products in D2 and a different masked multiplicand in D1, under
  // every policy, against the per-bit oracle; a MULT that does not stage
  // (skipped or d1-staged) must leave D1 bit for bit as it was.
  const RowRef d1 = RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(macro::ImcMacro::kDummyAccum);
  const macro::AdaptivePolicy policies[] = {{}, {true, false}, {false, true}, {true, true}};
  Rng rng(0xA11A5);
  std::size_t skipped = 0, kept_d1 = 0;
  for (const std::size_t cols : {96u, 128u, 320u}) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      if (cols % (2 * bits) != 0) continue;
      macro::ImcMacro m{geometry_cfg(cols)};
      const auto masked = [&](const BitVector& row) {
        BitVector out(cols);
        for (std::size_t base = 0; base < cols; base += 2 * bits)
          out.deposit_bits(base, bits, row.extract_bits(base, bits));
        return out;
      };
      for (int rep = 0; rep < 4; ++rep) {
        // Rows 0, 1, 3 hold random operands (garbage in the high halves);
        // row 2 is an all-zero multiplicand.
        BitVector row0(cols), row1(cols), row3(cols);
        const BitVector zero(cols);
        row0.randomize(rng);
        row1.randomize(rng);
        row3.randomize(rng);
        m.poke_row(0, row0);
        m.poke_row(1, row1);
        m.poke_row(2, zero);
        m.poke_row(3, row3);
        const BitVector primed_d1 = masked(row3);
        struct Case {
          const char* name;
          RowRef a, b;
          macro::MacLink link;
          const BitVector& mcand;   // the multiplicand as the sequencer reads it
          const BitVector& mplier;  // the multiplier as the FFs load it
        };
        const Case cases[] = {
            {"multiplicand D2", d2, RowRef::main(1), macro::MacLink::Head, zero, row1},
            {"multiplier D2", RowRef::main(0), d2, macro::MacLink::Head, row0, zero},
            {"both D2", d2, d2, macro::MacLink::Pipelined, zero, zero},
            {"d1-staged multiplicand D1", d1, RowRef::main(1), macro::MacLink::D1Staged,
             primed_d1, row1},
            {"d1-staged D1 x D2", d1, d2, macro::MacLink::D1Staged, primed_d1, zero},
            {"restaged multiplicand D1", d1, RowRef::main(1), macro::MacLink::Pipelined,
             primed_d1, row1},
            {"zero multiplicand", RowRef::main(2), RowRef::main(1), macro::MacLink::Head, zero,
             row1},
        };
        for (const macro::AdaptivePolicy policy : policies) {
          for (const Case& c : cases) {
            const std::string what = std::string(c.name) + " cols=" + std::to_string(cols) +
                                     " bits=" + std::to_string(bits) +
                                     " rep=" + std::to_string(rep) +
                                     " narrow=" + std::to_string(policy.narrow_precision) +
                                     " skip=" + std::to_string(policy.skip_zero);
            // Prime: D1 <- masked row 3, D2 <- row 3 x row 1.
            (void)m.execute_mult(RowRef::main(3), RowRef::main(1), bits);
            ASSERT_EQ(m.sram().row(d1), primed_d1) << what;
            ASSERT_EQ(m.sram().row(d2), naive_mult_datapath(row3, row1, bits)) << what;
            const macro::MultPlan plan = m.execute_mult(c.a, c.b, bits, policy, c.link);
            EXPECT_EQ(m.sram().row(d2), naive_mult_datapath(c.mcand, c.mplier, bits)) << what;
            const bool stages = plan.staging_cycles() > 0;
            EXPECT_EQ(m.sram().row(d1), stages ? masked(c.mcand) : primed_d1) << what;
            EXPECT_EQ(plan.skip,
                      policy.skip_zero && host_effectual_depth(c.mcand, c.mplier, bits) == 0)
                << what;
            EXPECT_EQ(plan.d1_staged, c.link == macro::MacLink::D1Staged) << what;
            EXPECT_EQ(m.last_op().cycles, plan.cycles()) << what;
            skipped += plan.skip ? 1 : 0;
            kept_d1 += stages ? 0 : 1;
          }
        }
      }
    }
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(kept_d1, skipped);  // d1-staged links keep D1 too
}

TEST(HotPathDiff, FusedAdaptiveProgramsPriceEveryRetireRecord) {
  // Random fused, policy-on programs through the controller: MAC chains
  // over a shared multiplicand (pipelined and d1-staged links), broken by
  // SUBs that clobber D1 and by ADDs, at every precision. Every MULT's
  // retired product row matches the per-bit oracle, and every retire
  // record's cycles and energy equal CostModel::instruction_cost(inst,
  // plan) bitwise.
  Rng rng(0xF05E);
  for (const std::size_t cols : {128u, 320u}) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      const macro::MacroConfig cfg = geometry_cfg(cols);
      macro::ImcMacro m{cfg};
      macro::MacroController ctl(m);
      const std::size_t units = m.mult_units_per_row(bits);
      for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t u = 0; u < units; ++u)
          m.poke_mult_operand(r, u, bits, sparse_operand(rng, bits, 40));
      }
      for (int rep = 0; rep < 6; ++rep) {
        macro::Program prog;
        const RowRef a = RowRef::main(rng.next_u64() % 4);
        for (int k = 0; k < 10; ++k) {
          const std::uint64_t pick = rng.next_u64() % 8;
          const RowRef b = RowRef::main(4 + rng.next_u64() % 4);
          if (pick == 0) {
            prog.sub(RowRef::main(4), RowRef::main(5), bits);
          } else if (pick == 1) {
            prog.add(RowRef::main(4), RowRef::main(6), bits);
          } else {
            prog.mult(pick == 2 ? RowRef::main(rng.next_u64() % 4) : a, b, bits);
          }
        }
        for (const macro::AdaptivePolicy policy :
             {macro::AdaptivePolicy{true, true}, macro::AdaptivePolicy{true, false},
              macro::AdaptivePolicy{false, true}}) {
          macro::RowCapture cap(prog, cols);
          const macro::ProgramStats st = ctl.run(prog, policy, cap.records());
          const std::string what = "cols=" + std::to_string(cols) +
                                   " bits=" + std::to_string(bits) + " rep=" + std::to_string(rep);
          macro::expect_priced_as_executed(cfg, prog, cap.records(), what);
          EXPECT_EQ(st.cycles + st.fused_cycles_saved + st.adaptive_cycles_saved,
                    prog.static_cycles())
              << what;
          for (std::size_t k = 0; k < prog.size(); ++k) {
            const macro::Instruction& inst = prog.instructions()[k];
            if (inst.op != macro::Op::Mult) continue;
            EXPECT_EQ(cap.row(k), naive_mult_datapath(m.peek_row(inst.a.index),
                                                      m.peek_row(inst.b.index), bits))
                << what << " " << macro::to_string(inst);
          }
        }
      }
    }
  }
}

TEST(HotPathDiff, ShiftAndAddShiftMatchPerBitSemantics) {
  Rng rng(0x5417);
  macro::ImcMacro m{geometry_cfg(96)};
  const unsigned bits = 8;
  for (int rep = 0; rep < 10; ++rep) {
    BitVector a(96), b(96);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(0, a);
    m.poke_row(1, b);

    // Shift: out[w*bits + i] = src[w*bits + i - 1], field LSBs cleared.
    const BitVector shifted =
        m.unary_row(macro::Op::Shift, RowRef::main(0), RowRef::main(2), bits);
    for (std::size_t w = 0; w < 96 / bits; ++w)
      for (unsigned i = 0; i < bits; ++i)
        EXPECT_EQ(shifted.get(w * bits + i), i == 0 ? false : a.get(w * bits + i - 1));

    // AddShift: the propagated-sum path writes S[n-1] into column n.
    const AddResult ref = naive_add({a & b, ~(a | b)}, bits, false);
    const BitVector as = m.add_shift_rows(RowRef::main(0), RowRef::main(1), bits,
                                          RowRef::dummy(macro::ImcMacro::kDummyAccum));
    for (std::size_t w = 0; w < 96 / bits; ++w)
      for (unsigned i = 0; i < bits; ++i)
        EXPECT_EQ(as.get(w * bits + i), i == 0 ? false : ref.sum.get(w * bits + i - 1));
  }
}

TEST(HotPathDiff, ProgramPathMatchesDirectDatapathAndOracles) {
  // Unified execution model differential: every op kind x precision x random
  // row placement, compiled by OpCompiler and executed through a VerifyFirst
  // controller on one macro, against the same sequence of direct datapath
  // calls on a twin macro (same config -> identical state evolution). The
  // driven-out rows must match bitwise, per-op cycles/energy must match the
  // twin's ledger exactly, and each result must also agree with the
  // independent per-bit oracle.
  Rng rng(0x9406);
  const macro::MacroConfig cfg;
  const std::size_t cols = cfg.geometry.cols;
  const std::size_t rows = cfg.geometry.rows;
  const RowRef d1 = RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(macro::ImcMacro::kDummyAccum);
  enum class K { Add, Sub, Mult, AddShift, Not, Logic };
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    macro::ImcMacro direct{cfg};
    macro::ImcMacro programmed{cfg};
    macro::OpCompiler compiler(cfg.geometry);
    macro::MacroController ctl(programmed, macro::VerifyMode::VerifyFirst);
    for (const K kind : {K::Add, K::Sub, K::Mult, K::AddShift, K::Not, K::Logic}) {
      for (int rep = 0; rep < 6; ++rep) {
        std::size_t ri_a = rng.next_u64() % rows;
        std::size_t ri_b = rng.next_u64() % rows;
        while (ri_b == ri_a) ri_b = rng.next_u64() % rows;
        BitVector va(cols), vb(cols);
        va.randomize(rng);
        vb.randomize(rng);
        for (macro::ImcMacro* m : {&direct, &programmed}) {
          m->poke_row(ri_a, va);
          m->poke_row(ri_b, vb);
        }
        const RowRef a = RowRef::main(ri_a);
        const RowRef b = RowRef::main(ri_b);
        const macro::VerifiedProgram* prog = nullptr;
        BitVector want;
        switch (kind) {
          case K::Add:
            prog = &compiler.add(a, b, bits);
            want = direct.add_rows(a, b, bits);
            break;
          case K::Sub:
            prog = &compiler.sub(a, b, bits);
            want = direct.sub_rows(a, b, bits);
            break;
          case K::Mult:
            prog = &compiler.mult(a, b, bits);
            want = direct.mult_rows(a, b, bits);
            break;
          case K::AddShift:
            prog = &compiler.add_shift(a, b, bits, d2);
            want = direct.add_shift_rows(a, b, bits, d2);
            break;
          case K::Not:
            prog = &compiler.unary(macro::Op::Not, a, d1, bits);
            want = direct.unary_row(macro::Op::Not, a, d1, bits);
            break;
          case K::Logic:
            prog = &compiler.logic(periph::LogicFn::Nor, a, b);
            want = direct.logic_rows(periph::LogicFn::Nor, a, b);
            break;
        }
        macro::RowCapture cap(prog->program(), cols);
        (void)ctl.run(*prog, {}, cap.records());
        const BitVector got = cap.row(0);
        const std::string what = "kind=" + std::string(1, "ASMXNL"[static_cast<int>(kind)]) +
                                 " bits=" + std::to_string(bits) + " rows=(" +
                                 std::to_string(ri_a) + "," + std::to_string(ri_b) + ")";
        EXPECT_EQ(got, want) << what;
        EXPECT_EQ(cap[0].cycles, direct.last_op().cycles) << what;
        EXPECT_EQ(cap[0].op_energy.si(), direct.last_op().op_energy.si()) << what;
        macro::expect_priced_as_executed(cfg, prog->program(), cap.records(), what);

        switch (kind) {
          case K::Add:
            EXPECT_EQ(got, naive_add({va & vb, ~(va | vb)}, bits, false).sum) << what;
            break;
          case K::Sub:
            // a - b == a + ~b + 1 per field: readout of (a, ~b), carry-in 1.
            EXPECT_EQ(got, naive_add({va & ~vb, ~(va | ~vb)}, bits, true).sum) << what;
            break;
          case K::Mult:
            EXPECT_EQ(got, naive_mult_datapath(va, vb, bits)) << what;
            break;
          case K::AddShift: {
            const AddResult ref = naive_add({va & vb, ~(va | vb)}, bits, false);
            for (std::size_t w = 0; w < cols / bits; ++w)
              for (unsigned i = 0; i < bits; ++i)
                EXPECT_EQ(got.get(w * bits + i),
                          i == 0 ? false : ref.sum.get(w * bits + i - 1))
                    << what;
            break;
          }
          case K::Not:
            EXPECT_EQ(got, ~va) << what;
            break;
          case K::Logic:
            EXPECT_EQ(got, ~(va | vb)) << what;
            break;
        }
      }
    }
    // Random placements mostly miss the cache; what matters is that every
    // emitted program was verified and none was rejected.
    EXPECT_GT(compiler.cache_stats().compiled, 0u);
  }
}

TEST(HotPathDiff, PokePeekRoundTripAcrossWordBoundaries) {
  // 16-bit words at 96 cols put word 3 at columns 48..64 -- straddling the
  // storage-word boundary.
  macro::ImcMacro m{geometry_cfg(96)};
  Rng rng(0x9011);
  const unsigned bits = 16;
  for (std::size_t w = 0; w < m.words_per_row(bits); ++w) {
    const std::uint64_t v = rng.next_u64() & 0xFFFFu;
    m.poke_word(3, w, bits, v);
    EXPECT_EQ(m.peek_word(3, w, bits), v);
  }
}

TEST(HotPathDiff, BulkPokeMatchesPerWordPokes) {
  macro::ImcMacro one{geometry_cfg(128)};
  macro::ImcMacro bulk{geometry_cfg(128)};
  Rng rng(0xB01C);
  const unsigned bits = 8;
  std::vector<std::uint64_t> vals(one.words_per_row(bits));
  for (auto& v : vals) v = rng.next_u64() & 0xFFu;
  for (std::size_t w = 0; w < vals.size(); ++w) one.poke_word(4, w, bits, vals[w]);
  bulk.poke_words(4, 0, bits, vals);
  EXPECT_EQ(one.peek_row(4), bulk.peek_row(4));

  std::vector<std::uint64_t> ops(one.mult_units_per_row(bits));
  for (auto& v : ops) v = rng.next_u64() & 0xFFu;
  for (std::size_t u = 0; u < ops.size(); ++u) one.poke_mult_operand(5, u, bits, ops[u]);
  bulk.poke_mult_operands(5, 0, bits, ops);
  EXPECT_EQ(one.peek_row(5), bulk.peek_row(5));

  EXPECT_THROW(bulk.poke_words(4, 16, bits, vals), std::invalid_argument);
  EXPECT_THROW(bulk.poke_words(4, 0, bits, std::vector<std::uint64_t>{1ull << bits}),
               std::invalid_argument);
}

TEST(HotPathDiff, WordLevelStagingMatchesPerElementDeposits) {
  // poke_words / poke_mult_operands assemble each storage word and write it
  // once. The oracle deposits element by element into a copy of the same
  // random row: spans start past slot 0 and stop short of the row end, so
  // every column outside them must keep its bits -- on inline rows (128,
  // 256 columns) and heap rows (320).
  Rng rng(0x57A6);
  for (const std::size_t cols : {128u, 256u, 320u}) {
    macro::ImcMacro m{geometry_cfg(cols)};
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      const std::uint64_t mask = (1ull << bits) - 1;
      for (const bool mult : {false, true}) {
        const std::size_t field = mult ? 2 * bits : bits;
        const std::size_t slots = mult ? m.mult_units_per_row(bits) : m.words_per_row(bits);
        for (int rep = 0; rep < 8; ++rep) {
          const std::size_t first = rep == 0 ? 0 : 1 + rng.uniform_u64(slots - 1);
          const std::size_t count = rep == 0 ? slots : rng.uniform_u64(slots - first + 1);
          std::vector<std::uint64_t> vals(count);
          for (auto& v : vals) v = rng.next_u64() & mask;
          BitVector want(cols);
          want.randomize(rng);
          m.poke_row(7, want);
          if (mult)
            m.poke_mult_operands(7, first, bits, vals);
          else
            m.poke_words(7, first, bits, vals);
          for (std::size_t i = 0; i < count; ++i)
            want.deposit_bits((first + i) * field, field, vals[i]);
          EXPECT_EQ(m.peek_row(7), want) << cols << " cols, " << bits << "b, "
                                         << (mult ? "mult" : "word") << " [" << first << ", +"
                                         << count << ")";
        }
        // One value too wide for the precision rejects the whole span
        // before any bit is written.
        BitVector before(cols);
        before.randomize(rng);
        m.poke_row(7, before);
        std::vector<std::uint64_t> bad(slots - 1, 1);
        bad.back() = mask + 1;
        EXPECT_THROW(mult ? m.poke_mult_operands(7, 1, bits, bad) : m.poke_words(7, 1, bits, bad),
                     std::invalid_argument);
        EXPECT_EQ(m.peek_row(7), before) << cols << " cols, " << bits << "b rejected span";
      }
    }
  }
}

TEST(HotPathDiff, AdaptiveExecutionIsBitIdenticalAcrossOpsAndSparsity) {
  // The adaptive policy may only move cycles, never bits: every op kind x
  // precision x operand sparsity, run policy-on against a policy-off twin
  // and the per-bit oracles, with the three-way cycle split checked exactly
  // (full == adaptive + adaptive_cycles_saved, both == Table 1 static).
  Rng rng(0xADA7);
  const macro::MacroConfig cfg;
  const std::size_t cols = cfg.geometry.cols;
  const RowRef d1 = RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(macro::ImcMacro::kDummyAccum);
  const macro::AdaptivePolicy policies[] = {{true, false}, {false, true}, {true, true}};
  enum class K { Add, Sub, Mult, AddShift, Not, Logic };
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    for (const int zero_pct : {0, 50, 95}) {
      for (const macro::AdaptivePolicy policy : policies) {
        macro::ImcMacro full{cfg};
        macro::ImcMacro adapt{cfg};
        macro::OpCompiler compiler(cfg.geometry);
        macro::MacroController full_ctl(full, macro::VerifyMode::VerifyFirst);
        macro::MacroController adapt_ctl(adapt, macro::VerifyMode::VerifyFirst);
        for (const K kind : {K::Add, K::Sub, K::Mult, K::AddShift, K::Not, K::Logic}) {
          for (int rep = 0; rep < 4; ++rep) {
            const RowRef a = RowRef::main(0);
            const RowRef b = RowRef::main(1);
            if (kind == K::Mult) {
              for (std::size_t u = 0; u < full.mult_units_per_row(bits); ++u) {
                const std::uint64_t va = sparse_operand(rng, bits, zero_pct);
                const std::uint64_t vb = sparse_operand(rng, bits, zero_pct);
                for (macro::ImcMacro* m : {&full, &adapt}) {
                  m->poke_mult_operand(0, u, bits, va);
                  m->poke_mult_operand(1, u, bits, vb);
                }
              }
            } else {
              BitVector va(cols), vb(cols);
              va.randomize(rng);
              vb.randomize(rng);
              for (macro::ImcMacro* m : {&full, &adapt}) {
                m->poke_row(0, va);
                m->poke_row(1, vb);
              }
            }
            const BitVector row_a = full.peek_row(0);
            const BitVector row_b = full.peek_row(1);
            const macro::VerifiedProgram* prog = nullptr;
            switch (kind) {
              case K::Add: prog = &compiler.add(a, b, bits); break;
              case K::Sub: prog = &compiler.sub(a, b, bits); break;
              case K::Mult: prog = &compiler.mult(a, b, bits); break;
              case K::AddShift: prog = &compiler.add_shift(a, b, bits, d2); break;
              case K::Not: prog = &compiler.unary(macro::Op::Not, a, d1, bits); break;
              case K::Logic: prog = &compiler.logic(periph::LogicFn::Nor, a, b); break;
            }
            macro::RowCapture ft(prog->program(), cols), at(prog->program(), cols);
            const macro::ProgramStats fs = full_ctl.run(*prog, {}, ft.records());
            const macro::ProgramStats as = adapt_ctl.run(*prog, policy, at.records());
            const std::string what = "kind=" +
                                     std::string(1, "ASMXNL"[static_cast<int>(kind)]) +
                                     " bits=" + std::to_string(bits) +
                                     " zero%=" + std::to_string(zero_pct) +
                                     " narrow=" + std::to_string(policy.narrow_precision) +
                                     " skip=" + std::to_string(policy.skip_zero);
            EXPECT_EQ(at.row(0), ft.row(0)) << what;
            macro::expect_priced_as_executed(cfg, prog->program(), ft.records(), what);
            macro::expect_priced_as_executed(cfg, prog->program(), at.records(), what);
            // Exact cycle conservation: the policy-off twin pays Table 1 in
            // full, and the adaptive run splits the same total.
            EXPECT_EQ(fs.adaptive_cycles_saved, 0u) << what;
            EXPECT_EQ(fs.cycles, prog->program().static_cycles()) << what;
            EXPECT_EQ(as.cycles + as.adaptive_cycles_saved, fs.cycles) << what;
            EXPECT_EQ(at[0].adaptive_cycles_saved, as.adaptive_cycles_saved) << what;
            EXPECT_LE(as.energy.si(), fs.energy.si()) << what;
            if (kind != K::Mult) {
              EXPECT_EQ(as.adaptive_cycles_saved, 0u) << what;
            } else {
              EXPECT_EQ(at.row(0), naive_mult_datapath(row_a, row_b, bits)) << what;
            }
          }
        }
      }
    }
  }
}

TEST(HotPathDiff, AdaptiveNarrowingAndSkipSaveExactCycles) {
  const macro::MacroConfig cfg;
  const unsigned bits = 8;
  const macro::AdaptivePolicy policy{true, true};
  macro::ImcMacro m{cfg};
  macro::MacroController ctl(m, macro::VerifyMode::VerifyFirst);
  const std::size_t units = m.mult_units_per_row(bits);
  macro::Program prog;
  prog.mult(RowRef::main(0), RowRef::main(1), bits);

  // All-zero multiplicand: every product is provably zero, so the MULT
  // collapses to its single zero-init cycle and skips staging outright.
  for (std::size_t u = 0; u < units; ++u) {
    m.poke_mult_operand(0, u, bits, 0);
    m.poke_mult_operand(1, u, bits, 0xFF);
  }
  macro::RowCapture skip(prog, cfg.geometry.cols);
  macro::ProgramStats s = ctl.run(prog, policy, skip.records());
  EXPECT_EQ(s.cycles, 1u);
  EXPECT_EQ(s.adaptive_cycles_saved, bits + 1u);
  EXPECT_EQ(skip.row(0).popcount(), 0u);
  EXPECT_TRUE(skip[0].plan.skip);
  macro::expect_priced_as_executed(cfg, prog, skip.records(), "skip");

  // Narrow multiplier: every effectual product has b <= 3, so only the two
  // low add-shift iterations run (staging still pays its cycle).
  for (std::size_t u = 0; u < units; ++u) {
    m.poke_mult_operand(0, u, bits, 5);
    m.poke_mult_operand(1, u, bits, 3);
  }
  macro::RowCapture narrow(prog, cfg.geometry.cols);
  s = ctl.run(prog, policy, narrow.records());
  EXPECT_EQ(s.cycles, 4u);  // zero-init + staging + 2 iterations
  EXPECT_EQ(s.adaptive_cycles_saved, bits - 2u);
  EXPECT_EQ(narrow[0].plan.depth, 2u);
  macro::expect_priced_as_executed(cfg, prog, narrow.records(), "narrow");
  for (std::size_t u = 0; u < units; ++u) EXPECT_EQ(narrow[0].values[u], 15u);
}

TEST(HotPathDiff, AdaptiveFusedChainStaysBitIdenticalAndConserving) {
  // Fusion and adaptivity compose: a chained-MAC program whose middle MULT
  // skips entirely must keep the staged-D1 discount of the later links
  // honest (the stale-multiplicand hazard the controller's staging validity
  // tracking exists for) and still split Table 1's total exactly.
  Rng rng(0xFADE);
  const macro::MacroConfig cfg;
  const unsigned bits = 8;
  macro::ImcMacro full{cfg};
  macro::ImcMacro adapt{cfg};
  macro::MacroController full_ctl(full, macro::VerifyMode::VerifyFirst);
  macro::MacroController adapt_ctl(adapt, macro::VerifyMode::VerifyFirst);
  const std::size_t units = full.mult_units_per_row(bits);
  for (std::size_t u = 0; u < units; ++u) {
    const std::uint64_t a = 1 + (rng.next_u64() & 0xFE);
    const std::uint64_t b1 = rng.next_u64() & 0xFF;
    const std::uint64_t b3 = rng.next_u64() & 0x3;
    for (macro::ImcMacro* m : {&full, &adapt}) {
      m->poke_mult_operand(0, u, bits, a);
      m->poke_mult_operand(1, u, bits, b1);
      m->poke_mult_operand(2, u, bits, 0);  // the skipping middle link
      m->poke_mult_operand(3, u, bits, b3);
    }
  }
  macro::Program prog;
  for (std::size_t r = 1; r <= 3; ++r)
    prog.mult(RowRef::main(0), RowRef::main(r), bits);

  macro::RowCapture ft(prog, cfg.geometry.cols), at(prog, cfg.geometry.cols);
  const macro::ProgramStats fs = full_ctl.run(prog, {}, ft.records());
  const macro::ProgramStats as =
      adapt_ctl.run(prog, macro::AdaptivePolicy{true, true}, at.records());
  macro::expect_priced_as_executed(cfg, prog, ft.records(), "dense");
  macro::expect_priced_as_executed(cfg, prog, at.records(), "adaptive fused");
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(at.row(k), ft.row(k)) << "link " << k;
    EXPECT_EQ(at.row(k), naive_mult_datapath(full.peek_row(0), full.peek_row(k + 1), bits))
        << "link " << k;
  }
  // The dense twin runs the same chain: a head and two d1-staged links.
  EXPECT_EQ(fs.adaptive_cycles_saved, 0u);
  EXPECT_EQ(fs.fused_cycles_saved, 4u);
  EXPECT_EQ(fs.cycles + fs.fused_cycles_saved, prog.static_cycles());
  EXPECT_EQ(as.cycles + as.fused_cycles_saved + as.adaptive_cycles_saved,
            prog.static_cycles());
  EXPECT_GT(as.fused_cycles_saved, 0u);
  EXPECT_GT(as.adaptive_cycles_saved, 0u);
}

}  // namespace
}  // namespace bpim
