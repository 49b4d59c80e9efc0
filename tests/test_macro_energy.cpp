// The macro's cycle-by-cycle energy ledger must agree with the closed-form
// EnergyModel (same component prices, same recipes) -- Table 2 by simulation.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "energy/calibration.hpp"
#include "macro/cost_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/memory.hpp"
#include "macro/program.hpp"
#include "priced_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using energy::EnergyModel;
using energy::SeparatorMode;

MacroConfig config_with(SeparatorMode sep) {
  MacroConfig cfg;
  cfg.separator = sep;
  return cfg;
}

/// Energy per word of a full-row op = ledger energy / words per row.
double per_word_fj(const ImcMacro& m, unsigned bits) {
  return in_fJ(m.last_op().op_energy) / static_cast<double>(m.cols() / bits);
}

class MacroEnergy : public ::testing::TestWithParam<unsigned> {};

TEST_P(MacroEnergy, AddMatchesClosedForm) {
  const unsigned bits = GetParam();
  ImcMacro m{MacroConfig{}};
  const EnergyModel ref;
  m.add_rows(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_NEAR(per_word_fj(m, bits), in_fJ(ref.add(bits, m.config().vdd)), 1e-6);
}

TEST_P(MacroEnergy, SubMatchesClosedFormBothSeparatorModes) {
  const unsigned bits = GetParam();
  const EnergyModel ref;
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    ImcMacro m{config_with(sep)};
    m.sub_rows(RowRef::main(0), RowRef::main(1), bits);
    EXPECT_NEAR(per_word_fj(m, bits), in_fJ(ref.sub(bits, m.config().vdd, sep)), 1e-6)
        << (sep == SeparatorMode::Enabled ? "w/ sep" : "w/o sep");
  }
}

TEST_P(MacroEnergy, MultMatchesClosedFormBothSeparatorModes) {
  const unsigned bits = GetParam();
  const EnergyModel ref;
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    ImcMacro m{config_with(sep)};
    m.poke_mult_operand(0, 0, bits, 1);
    m.poke_mult_operand(1, 0, bits, 1);
    m.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    const double per_unit =
        in_fJ(m.last_op().op_energy) / static_cast<double>(m.mult_units_per_row(bits));
    EXPECT_NEAR(per_unit, in_fJ(ref.mult(bits, m.config().vdd, sep)), 1e-6)
        << (sep == SeparatorMode::Enabled ? "w/ sep" : "w/o sep");
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, MacroEnergy, ::testing::Values(2u, 4u, 8u));

TEST(MacroEnergyTable2, SimulatedMacroReproducesTable2) {
  // End-to-end: run the ops on the macro and compare the per-word energies
  // against the paper's Table 2 within the calibration tolerance.
  for (const auto& t : energy::table2_targets()) {
    ImcMacro m{config_with(t.sep)};
    double fj = 0.0;
    const std::string op(t.op);
    if (op == "ADD") {
      m.add_rows(RowRef::main(0), RowRef::main(1), t.bits);
      fj = per_word_fj(m, t.bits);
    } else if (op == "SUB") {
      m.sub_rows(RowRef::main(0), RowRef::main(1), t.bits);
      fj = per_word_fj(m, t.bits);
    } else {
      m.mult_rows(RowRef::main(0), RowRef::main(1), t.bits);
      fj = in_fJ(m.last_op().op_energy) / static_cast<double>(m.mult_units_per_row(t.bits));
    }
    EXPECT_NEAR(fj, t.paper_fj, 0.06 * t.paper_fj)
        << op << " " << t.bits << "b sep=" << (t.sep == SeparatorMode::Enabled);
  }
}

TEST(MacroEnergyConservation, InstructionCostMatchesLedgerBitwise) {
  // The conservation law, per instruction: CostModel must replay the exact
  // charge sequence of the executing datapath -- same components, same bit
  // counts, same fold order -- so cycles match as integers and energy as
  // bitwise-identical doubles, across precisions, separator modes and
  // supply voltages.
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    for (const double vdd : {0.9, 0.6}) {
      MacroConfig cfg;
      cfg.separator = sep;
      cfg.vdd = Volt(vdd);
      ImcMacro m{cfg};
      const CostModel cost(cfg);
      const auto expect_priced = [&](const Instruction& inst, const char* what) {
        const InstructionCost priced = cost.instruction_cost(inst);
        EXPECT_EQ(priced.cycles, m.last_op().cycles)
            << what << " bits=" << inst.bits << " vdd=" << vdd
            << " sep=" << (sep == SeparatorMode::Enabled);
        EXPECT_EQ(priced.energy.si(), m.last_op().op_energy.si())
            << what << " bits=" << inst.bits << " vdd=" << vdd
            << " sep=" << (sep == SeparatorMode::Enabled);
      };
      for (const unsigned bits : {2u, 4u, 8u, 16u}) {
        Instruction inst;
        inst.bits = bits;

        inst.op = Op::Add;
        inst.a = RowRef::main(0);
        inst.b = RowRef::main(1);
        m.add_rows(inst.a, inst.b, bits);
        expect_priced(inst, "ADD");

        inst.dest = d2;
        m.add_rows(inst.a, inst.b, bits, d2);
        expect_priced(inst, "ADD->D2");
        inst.dest.reset();

        inst.op = Op::Sub;
        m.sub_rows(inst.a, inst.b, bits);
        expect_priced(inst, "SUB");

        inst.op = Op::AddShift;
        inst.dest = d2;
        m.add_shift_rows(inst.a, inst.b, bits, d2);
        expect_priced(inst, "ADD-SHIFT");
        inst.dest.reset();

        inst.op = Op::Not;
        inst.dest = d1;
        m.unary_row(Op::Not, inst.a, d1, bits);
        expect_priced(inst, "NOT");
        inst.dest.reset();

        inst.op = Op::And;
        inst.logic_fn = periph::LogicFn::Xor;
        m.logic_rows(periph::LogicFn::Xor, inst.a, inst.b);
        expect_priced(inst, "LOGIC");

        inst.op = Op::Mult;
        m.mult_rows(inst.a, inst.b, bits);
        expect_priced(inst, "MULT");

        // Chained MULTs: pipelined, and pipelined + D1-staged.
        Instruction prev = inst;
        m.execute_mult(RowRef::main(2), RowRef::main(3), bits, {}, MacLink::Pipelined);
        Instruction chained = inst;
        chained.a = RowRef::main(2);
        chained.b = RowRef::main(3);
        const InstructionCost piped = cost.instruction_cost(chained, &prev);
        EXPECT_EQ(piped.cycles, m.last_op().cycles) << "MULT piped bits=" << bits;
        EXPECT_EQ(piped.energy.si(), m.last_op().op_energy.si()) << "MULT piped bits=" << bits;

        prev = chained;
        m.execute_mult(chained.a, RowRef::main(5), bits, {}, MacLink::D1Staged);
        Instruction staged = chained;
        staged.b = RowRef::main(5);
        const InstructionCost st = cost.instruction_cost(staged, &prev);
        EXPECT_EQ(st.cycles, m.last_op().cycles) << "MULT staged bits=" << bits;
        EXPECT_EQ(st.energy.si(), m.last_op().op_energy.si()) << "MULT staged bits=" << bits;
      }
    }
  }
}

std::uint64_t sparse_operand(Rng& rng, unsigned bits, int zero_pct) {
  if (static_cast<int>(rng.next_u64() % 100) < zero_pct) return 0;
  return rng.next_u64() & ((1ull << bits) - 1);
}

TEST(MacroEnergyConservation, ControllerLedgerPricesExactlyOnEveryInstruction) {
  // The same law through the controller, whose account is the ledger alone:
  // every executed instruction, priced under the MULT plan it resolved to,
  // matches its ledger entry exactly -- across separator modes, supply
  // voltages, operand sparsity, chained MULTs, the adaptive policy, the op
  // a program's first MULT directly follows, and a fresh macro beside a
  // warm one: macro 1 of a memory whose macros share one MULT price table,
  // which has run the same program (every plan it charges) before.
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  const auto m = [](std::size_t r) { return RowRef::main(r); };
  Rng rng(0xC057);
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    for (const double vdd : {0.9, 0.6}) {
      MacroConfig cfg;
      cfg.separator = sep;
      cfg.vdd = Volt(vdd);
      for (const int zero_pct : {0, 50, 95}) {
        for (const AdaptivePolicy policy : {AdaptivePolicy{}, AdaptivePolicy{true, true}}) {
          for (const unsigned bits : {4u, 8u}) {
            for (const Op lead : {Op::Add, Op::Sub, Op::Not}) {
              ImcMacro fresh{cfg};
              ImcMemory mem({.macro = cfg, .banks = 1, .macros_per_bank = 2});
              ImcMacro& warm = mem.macro(1);
              for (std::size_t r = 0; r < 6; ++r)
                for (std::size_t u = 0; u < fresh.mult_units_per_row(bits); ++u) {
                  const std::uint64_t v = sparse_operand(rng, bits, zero_pct);
                  fresh.poke_mult_operand(r, u, bits, v);
                  warm.poke_mult_operand(r, u, bits, v);
                }
              // A MULT right after `lead`, then MULT links that reuse D1,
              // re-stage it, and lose it to a SUB or a NOT into D1, around
              // every other op kind.
              Program p;
              if (lead == Op::Add) p.add(m(2), m(3), bits);
              if (lead == Op::Sub) p.sub(m(2), m(3), bits);
              if (lead == Op::Not) p.unary(Op::Not, m(4), d1, bits);
              p.mult(m(0), m(1), bits).mult(m(0), m(2), bits).mult(m(3), m(4), bits);
              p.sub(m(1), m(2), bits).mult(m(3), m(5), bits).mult(m(3), m(1), bits);
              p.add(m(0), m(1), bits, d2).add_shift(m(2), m(3), bits, d2);
              p.unary(Op::Not, m(4), d1, bits).mult(m(0), m(5), bits);
              p.logic(periph::LogicFn::Xor, m(0), m(1)).add(m(2), m(3), bits);
              const std::string what =
                  "sep=" + std::to_string(sep == SeparatorMode::Enabled) +
                  " vdd=" + std::to_string(vdd) + " zero%=" + std::to_string(zero_pct) +
                  " adaptive=" + std::to_string(policy.enabled()) +
                  " bits=" + std::to_string(bits) + " lead=" + to_string(lead);

              RowCapture cap(p, cfg.geometry.cols);
              const ProgramStats st = MacroController(fresh).run(p, policy, cap.records());
              expect_priced_as_executed(cfg, p, cap.records(), what + " fresh");
              EXPECT_EQ(st.cycles + st.fused_cycles_saved + st.adaptive_cycles_saved,
                        p.static_cycles())
                  << what;
              EXPECT_EQ(st.cycles, fresh.total_cycles()) << what;
              EXPECT_EQ(st.energy.si(), fresh.total_energy().si()) << what;

              (void)MacroController(mem.macro(0)).run(p, policy);
              (void)MacroController(warm).run(p, policy);
              warm.reset_counters();
              RowCapture warm_cap(p, cfg.geometry.cols);
              const ProgramStats wst = MacroController(warm).run(p, policy, warm_cap.records());
              expect_priced_as_executed(cfg, p, warm_cap.records(), what + " warm");
              for (std::size_t k = 0; k < p.size(); ++k) {
                EXPECT_EQ(warm_cap[k].cycles, cap[k].cycles) << what << " #" << k;
                EXPECT_EQ(warm_cap[k].op_energy.si(), cap[k].op_energy.si())
                    << what << " #" << k;
                EXPECT_EQ(warm_cap.row(k), cap.row(k)) << what << " #" << k;
              }
              EXPECT_EQ(wst.energy.si(), warm.total_energy().si()) << what;
            }
          }
        }
      }
    }
  }
}

TEST(MacroEnergyConservation, DisturbReplayPricesExactlyOnEveryInstruction) {
  // Under live disturb injection a MULT's add-shift loop is replayed cycle
  // by cycle, and it is priced like the closed form: by its plan's one
  // MultPrices entry. Every retired instruction of a chain with D1-staged
  // links, a SUB that takes D1 away and links that re-stage it is priced
  // as executed. (Kept out of the fresh-vs-warm sweep above: each macro of
  // a memory draws its own disturb stream, so the twins' rows diverge.)
  const auto m = [](std::size_t r) { return RowRef::main(r); };
  Rng rng(0xD157);
  for (const AdaptivePolicy policy : {AdaptivePolicy{}, AdaptivePolicy{true, true}}) {
    for (const unsigned bits : {4u, 8u}) {
      MacroConfig cfg;
      cfg.wl_scheme = WlScheme::FullSwingLong;
      cfg.inject_disturb = true;
      ImcMacro mac{cfg};
      for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t u = 0; u < mac.mult_units_per_row(bits); ++u)
          mac.poke_mult_operand(r, u, bits, sparse_operand(rng, bits, 25));
      Program p;
      p.mult(m(0), m(1), bits).mult(m(0), m(2), bits).mult(m(0), m(3), bits);
      p.sub(m(1), m(2), bits).mult(m(0), m(4), bits).mult(m(0), m(5), bits);
      p.mult(m(3), m(4), bits).add(m(2), m(3), bits);
      const std::string what =
          "adaptive=" + std::to_string(policy.enabled()) + " bits=" + std::to_string(bits);

      RowCapture cap(p, cfg.geometry.cols);
      const ProgramStats st = MacroController(mac).run(p, policy, cap.records());
      EXPECT_GT(mac.disturb_flips(), 0u) << what;
      std::size_t staged_links = 0;
      for (std::size_t k = 0; k < cap.size(); ++k) staged_links += cap[k].plan.d1_staged ? 1 : 0;
      EXPECT_GT(staged_links, 0u) << what;
      expect_priced_as_executed(cfg, p, cap.records(), what);
      EXPECT_EQ(st.cycles + st.fused_cycles_saved + st.adaptive_cycles_saved, p.static_cycles())
          << what;
      EXPECT_EQ(st.cycles, mac.total_cycles()) << what;
      EXPECT_EQ(st.energy.si(), mac.total_energy().si()) << what;
    }
  }
}

TEST(MacroEnergyProperties, EnergyIndependentOfDataValues) {
  // The structural ledger charges by bits touched, not data (activity
  // factors are modelled as constants) -- two different operand sets must
  // report identical op energy.
  ImcMacro m{MacroConfig{}};
  Rng rng(9);
  BitVector r0(128), r1(128);
  r0.randomize(rng);
  r1.randomize(rng);
  m.poke_row(0, r0);
  m.poke_row(1, r1);
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  const double e1 = m.last_op().op_energy.si();
  m.poke_row(0, BitVector(128));
  m.poke_row(1, BitVector(128));
  m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_DOUBLE_EQ(m.last_op().op_energy.si(), e1);
}

TEST(MacroEnergyProperties, LowerSupplyQuadraticallyCheaper) {
  MacroConfig lo;
  lo.vdd = Volt(0.6);
  ImcMacro m09{MacroConfig{}};
  ImcMacro m06{lo};
  m09.add_rows(RowRef::main(0), RowRef::main(1), 8);
  m06.add_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_NEAR(m06.last_op().op_energy.si() / m09.last_op().op_energy.si(),
              (0.6 / 0.9) * (0.6 / 0.9), 1e-9);
}

TEST(MacroEnergyProperties, SeparatorNeverCostsEnergy) {
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    ImcMacro with{config_with(SeparatorMode::Enabled)};
    ImcMacro without{config_with(SeparatorMode::Disabled)};
    with.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    without.mult_rows(RowRef::main(0), RowRef::main(1), bits);
    EXPECT_LT(with.last_op().op_energy.si(), without.last_op().op_energy.si());
  }
}

}  // namespace
}  // namespace bpim::macro
