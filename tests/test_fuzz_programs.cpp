// Fuzzing: random instruction streams through the MacroController, checked
// word-for-word against a host-side reference executor that mirrors the
// architectural semantics (dummy rows included). This is the strongest
// whole-datapath invariant test in the suite.

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "priced_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

/// Host-side mirror of the macro's architectural state and op semantics.
class ReferenceMachine {
 public:
  explicit ReferenceMachine(std::size_t cols) : cols_(cols) {
    main_.fill(BitVector(cols));
    dummy_.fill(BitVector(cols));
  }

  BitVector& row(RowRef r) { return r.is_dummy() ? dummy_[r.index] : main_[r.index]; }

  BitVector exec(const Instruction& i) {
    const BitVector a = row(i.a);
    switch (i.op) {
      case Op::Nand: case Op::And: case Op::Nor: case Op::Or: case Op::Xnor: case Op::Xor: {
        const BitVector b = row(i.b);
        switch (i.logic_fn) {
          case LogicFn::And: return a & b;
          case LogicFn::Nand: return ~(a & b);
          case LogicFn::Or: return a | b;
          case LogicFn::Nor: return ~(a | b);
          case LogicFn::Xor: return a ^ b;
          default: return ~(a ^ b);
        }
      }
      case Op::Not: {
        BitVector r = ~a;
        row(*i.dest) = r;
        return r;
      }
      case Op::Copy:
        row(*i.dest) = a;
        return a;
      case Op::Shift: {
        BitVector r = word_shift(a, i.bits);
        row(*i.dest) = r;
        return r;
      }
      case Op::Add: {
        BitVector r = word_add(a, row(i.b), i.bits, false);
        if (i.dest) row(*i.dest) = r;
        return r;
      }
      case Op::AddShift: {
        BitVector r = word_shift(word_add(a, row(i.b), i.bits, false), i.bits);
        row(*i.dest) = r;
        return r;
      }
      case Op::Sub: {
        const BitVector nb = ~row(i.b);
        dummy_[ImcMacro::kDummyOperand] = nb;  // architectural side effect
        return word_add(a, nb, i.bits, true);
      }
      case Op::Mult: {
        BitVector r = unit_mult(a, row(i.b), i.bits);
        dummy_[ImcMacro::kDummyAccum] = r;
        return r;
      }
    }
    return a;
  }

 private:
  [[nodiscard]] BitVector word_add(const BitVector& a, const BitVector& b, unsigned bits,
                                   bool cin) const {
    BitVector out(cols_);
    for (std::size_t w = 0; w < cols_ / bits; ++w) {
      std::uint64_t x = 0, y = 0;
      for (unsigned k = 0; k < bits; ++k) {
        x |= static_cast<std::uint64_t>(a.get(w * bits + k)) << k;
        y |= static_cast<std::uint64_t>(b.get(w * bits + k)) << k;
      }
      const std::uint64_t s = x + y + (cin ? 1 : 0);
      for (unsigned k = 0; k < bits; ++k) out.set(w * bits + k, (s >> k) & 1u);
    }
    return out;
  }

  [[nodiscard]] BitVector word_shift(const BitVector& a, unsigned bits) const {
    BitVector out(cols_);
    for (std::size_t w = 0; w < cols_ / bits; ++w)
      for (unsigned k = 1; k < bits; ++k) out.set(w * bits + k, a.get(w * bits + k - 1));
    return out;
  }

  [[nodiscard]] BitVector unit_mult(const BitVector& a, const BitVector& b,
                                    unsigned bits) const {
    const unsigned wide = 2 * bits;
    BitVector out(cols_);
    for (std::size_t u = 0; u < cols_ / wide; ++u) {
      std::uint64_t x = 0, y = 0;
      for (unsigned k = 0; k < bits; ++k) {
        x |= static_cast<std::uint64_t>(a.get(u * wide + k)) << k;
        y |= static_cast<std::uint64_t>(b.get(u * wide + k)) << k;
      }
      const std::uint64_t p = x * y;
      for (unsigned k = 0; k < wide; ++k) out.set(u * wide + k, (p >> k) & 1u);
    }
    return out;
  }

  std::size_t cols_;
  std::array<BitVector, 128> main_;
  std::array<BitVector, 3> dummy_;
};

TEST(FuzzPrograms, RandomStreamsMatchReferenceMachine) {
  Rng rng(0xF022);
  std::size_t accum_reads = 0;  // ADD / ADD-Shift reading D2 after a MULT
  // Chain links the controller ran: MULT after MULT at one precision, with
  // D1 restaged (Pipelined) or reused (D1Staged).
  std::size_t pipelined = 0, d1_staged = 0;
  for (int round = 0; round < 12; ++round) {
    ImcMacro macro{MacroConfig{}};
    ReferenceMachine ref(macro.cols());
    MacroController ctl(macro, VerifyMode::VerifyFirst);

    // Seed six main rows with random data in both machines.
    for (std::size_t r = 0; r < 6; ++r) {
      BitVector data(macro.cols());
      data.randomize(rng);
      macro.poke_row(r, data);
      ref.row(RowRef::main(r)) = data;
    }

    constexpr std::array<unsigned, 3> kBits{4, 8, 16};
    Program p;
    std::vector<Instruction> expected;
    bool mult_emitted = false;
    // Once a MULT has left its products in D2, ADD / ADD-Shift may fold a
    // main row into that accumulator (the MAC-chain idiom) instead of
    // reading a second main row.
    const auto addend = [&](RowRef ra) {
      if (!mult_emitted || rng.uniform_u64(2) == 0) return ra;
      ++accum_reads;
      return RowRef::dummy(ImcMacro::kDummyAccum);
    };
    // The MULT just emitted (precision 0: the last instruction was none):
    // half the time the next one chains onto it at its precision, reusing
    // its multiplicand row half of those times.
    RowRef prev_a{};
    unsigned prev_bits = 0;
    for (int n = 0; n < 30; ++n) {
      const unsigned bits = kBits[rng.uniform_u64(kBits.size())];
      const auto ra = RowRef::main(rng.uniform_u64(6));
      auto rb = RowRef::main(rng.uniform_u64(6));
      if (rb == ra) rb = RowRef::main((rb.index + 1) % 6);
      if (prev_bits != 0 && rng.uniform_u64(2) == 0) {
        prev_a = rng.uniform_u64(2) == 0 ? prev_a : ra;
        p.mult(prev_a, RowRef::main((prev_a.index + 1 + rng.uniform_u64(5)) % 6), prev_bits);
        continue;
      }
      prev_bits = 0;
      switch (rng.uniform_u64(6)) {
        case 0: p.logic(LogicFn::Xor, ra, rb); break;
        case 1: p.unary(Op::Not, ra, RowRef::dummy(0), bits); break;
        case 2: p.add(addend(ra), rb, bits); break;
        case 3: p.add_shift(addend(ra), rb, bits, RowRef::dummy(2)); break;
        case 4: p.sub(ra, rb, bits); break;
        case 5:
          p.mult(ra, rb, bits);
          mult_emitted = true;
          prev_a = ra;
          prev_bits = bits;
          break;
      }
    }

    // Every builder-produced stream must pass the static verifier before it
    // executes -- and then execute identically to the reference machine.
    const VerifyReport rep = verify_program(p, macro.config().geometry);
    ASSERT_TRUE(rep.ok()) << "round " << round << ":\n" << rep.to_string();

    RowCapture cap(p, macro.cols());
    ctl.run(p, {}, cap.records());
    expect_priced_as_executed(macro.config(), p, cap.records(), "round " + std::to_string(round));
    for (std::size_t k = 0; k < p.size(); ++k) {
      const Instruction& inst = p.instructions()[k];
      pipelined += cap[k].plan.pipelined && !cap[k].plan.d1_staged ? 1 : 0;
      d1_staged += cap[k].plan.d1_staged ? 1 : 0;
      const BitVector want = ref.exec(inst);
      const BitVector got = cap.row(k);
      EXPECT_EQ(got, want) << "round " << round << " instr " << k << ": " << to_string(inst);
      if (got == want) continue;
      break;  // stop at first divergence; states are now unrelated
    }
  }
  // The seeded rounds must reach the accumulator operand and both kinds of
  // chain link at all.
  EXPECT_GT(accum_reads, 0u);
  EXPECT_GT(pipelined, 0u);
  EXPECT_GT(d1_staged, 0u);
}

/// One program issued instruction by instruction through the public row-op
/// API, each MULT through ImcMacro::execute_mult (a run of one), under the
/// controller's link rules: a MULT directly after a MULT at its precision is
/// pipelined, and d1-staged when D1 holds its multiplicand row's masked
/// copy (staged by a MULT whose plan staged, not since clobbered by SUB or a
/// write to D1). Fills `records` as the controller would and returns the
/// ProgramStats it should report.
ProgramStats run_as_runs_of_one(ImcMacro& m, const Program& p, const AdaptivePolicy& policy,
                                std::span<Extract> records) {
  ProgramStats st;
  unsigned prev_mult_bits = 0;
  const Instruction* staged = nullptr;
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  for (std::size_t k = 0; k < p.size(); ++k) {
    const Instruction& i = p.instructions()[k];
    MultPlan plan{};
    BitVector result;
    if (i.op == Op::Mult) {
      MacLink link = MacLink::Head;
      if (prev_mult_bits == i.bits)
        link = staged != nullptr && staged->a == i.a && staged->bits == i.bits
                   ? MacLink::D1Staged
                   : MacLink::Pipelined;
      plan = m.execute_mult(i.a, i.b, i.bits, policy, link);
      if (plan.staging_cycles() > 0) staged = &i;
      prev_mult_bits = i.bits;
      st.fused_cycles_saved += plan.fused_cycles_saved();
      st.adaptive_cycles_saved += plan.adaptive_cycles_saved(i.bits);
      ++st.mults;
      st.skipped += plan.skip ? 1 : 0;
      ++st.depths[plan.depth];
    } else {
      switch (i.op) {
        case Op::Not: case Op::Copy: case Op::Shift:
          result = m.unary_row(i.op, i.a, *i.dest, i.bits);
          break;
        case Op::Add: result = m.add_rows(i.a, i.b, i.bits, i.dest); break;
        case Op::AddShift: result = m.add_shift_rows(i.a, i.b, i.bits, *i.dest); break;
        case Op::Sub: result = m.sub_rows(i.a, i.b, i.bits); break;
        default: result = m.logic_rows(i.logic_fn, i.a, i.b); break;
      }
      if (i.op == Op::Sub || (i.dest && *i.dest == d1)) staged = nullptr;
      prev_mult_bits = 0;
    }
    const ExecStats es = m.last_op();
    st.cycles += es.cycles;
    st.energy += es.op_energy;
    if (records.empty()) continue;
    Extract& x = records[k];
    if (i.op == Op::Mult)
      m.peek_mult_products(m.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)), x.bits, x.values);
    else
      for (std::size_t w = 0; w < x.values.size(); ++w)
        x.values[w] = result.extract_bits(w * x.bits, x.bits);
    x.cycles = es.cycles;
    x.adaptive_cycles_saved = i.op == Op::Mult ? plan.adaptive_cycles_saved(i.bits) : 0;
    x.op_energy = es.op_energy;
    x.plan = plan;
  }
  st.instructions = p.size();
  st.elapsed = m.cycle_time() * static_cast<double>(st.cycles);
  return st;
}

TEST(FuzzPrograms, WholeRunsMatchRunsOfOne) {
  Rng rng(0x5EED);
  constexpr std::array<unsigned, 5> kBits{2, 4, 8, 16, 32};
  // What the seeded rounds must reach: MULTs inside a run, d1-staged,
  // skipped and narrowed plans, and records at another precision.
  std::size_t long_runs = 0, d1_staged = 0, skipped = 0, narrowed = 0, other_bits = 0;
  for (int round = 0; round < 64; ++round) {
    MacroConfig cfg;
    cfg.geometry.cols = round % 2 == 0 ? 128 : 320;
    const std::size_t cols = cfg.geometry.cols;
    ImcMacro whole(cfg), ones(cfg);

    // Rows 0..7 hold zero, narrow (bit 0 of every nibble), sparse and dense
    // data; D0 gets data through NOT ops below.
    for (std::size_t r = 0; r < 8; ++r) {
      BitVector data(cols), mask(cols);
      data.randomize(rng);
      const std::uint64_t m = r == 0 ? 0 : r < 3 ? 0x1111111111111111ull : ~0ull;
      for (std::size_t w = 0; w < mask.word_count(); ++w) mask.set_word(w, m);
      data &= mask;
      if (r == 3) {
        BitVector sparse(cols);
        sparse.randomize(rng);
        data &= sparse;
      }
      whole.poke_row(r, data);
      ones.poke_row(r, data);
    }

    // Runs of MULTs at one precision against one of two multiplicands,
    // broken by SUB, by writes to D1, by precision changes, by a new
    // multiplicand, and by ops that leave D1 alone (so a later head MULT
    // may find its multiplicand still staged, possibly from before its row
    // was rewritten).
    const auto row = [&] {
      const std::uint64_t r = rng.uniform_u64(9);
      return r == 8 ? RowRef::dummy(0) : RowRef::main(r);
    };
    Program p;
    RowRef mcand = RowRef::main(4);
    unsigned bits = kBits[rng.uniform_u64(kBits.size())];
    for (int n = 0; n < 40; ++n) {
      switch (rng.uniform_u64(12)) {
        case 0: p.sub(RowRef::main(rng.uniform_u64(5)), RowRef::main(5), 8); break;
        case 1: p.unary(Op::Not, RowRef::main(rng.uniform_u64(8)), RowRef::dummy(1), 8); break;
        case 2: p.unary(Op::Not, RowRef::main(rng.uniform_u64(8)), RowRef::dummy(0), 4); break;
        case 3: p.add(RowRef::main(6), RowRef::main(7), 16); break;
        case 4: p.unary(Op::Copy, RowRef::main(rng.uniform_u64(4)), RowRef::main(4), 8); break;
        case 5: bits = kBits[rng.uniform_u64(kBits.size())]; break;
        case 6: mcand = rng.uniform_u64(2) == 0 ? RowRef::main(4) : row(); break;
        default: {
          RowRef b = row();
          if (b == mcand) b = RowRef::main((mcand.index + 1) % 8);
          p.mult(mcand, b, bits);
        }
      }
    }
    const VerifyReport rep = verify_program(p, cfg.geometry);
    ASSERT_TRUE(rep.ok()) << "round " << round << ":\n" << rep.to_string();

    // Records: none at all, or one per instruction, a MULT's at its own or
    // another precision (every one tiles both widths), a word op's at 1..64
    // bits, each holding anything from no values to a whole row.
    const bool with_records = rng.uniform_u64(4) != 0;
    std::vector<std::vector<std::uint64_t>> vw, vo;
    std::vector<Extract> rw, ro;
    if (with_records) {
      vw.reserve(p.size());  // the records hold spans into these vectors
      vo.reserve(p.size());
      for (const Instruction& i : p.instructions()) {
        const bool mult = i.op == Op::Mult;
        unsigned rb = mult ? i.bits : 1 + static_cast<unsigned>(rng.uniform_u64(64));
        if (mult && rng.uniform_u64(3) == 0) rb = kBits[rng.uniform_u64(kBits.size())];
        other_bits += mult && rb != i.bits ? 1 : 0;
        const std::size_t n = rng.uniform_u64(cols / (mult ? 2 * rb : rb) + 1);
        vw.emplace_back(n, 0xDEAD);
        vo.emplace_back(n, 0xDEAD);
        rw.push_back({.bits = rb, .values = vw.back()});
        ro.push_back({.bits = rb, .values = vo.back()});
      }
    }
    AdaptivePolicy policy;
    policy.narrow_precision = rng.uniform_u64(2) == 0;
    policy.skip_zero = rng.uniform_u64(2) == 0;

    const ProgramStats got = MacroController(whole).run(p, policy, rw);
    const ProgramStats want = run_as_runs_of_one(ones, p, policy, ro);
    const std::string at = "round " + std::to_string(round) + " (" + std::to_string(cols) +
                           " cols)\n" + p.dump();

    for (std::size_t k = 0; k < rw.size(); ++k) {
      EXPECT_EQ(vw[k], vo[k]) << at << "values of #" << k;
      EXPECT_EQ(rw[k].cycles, ro[k].cycles) << at << "#" << k;
      EXPECT_EQ(rw[k].adaptive_cycles_saved, ro[k].adaptive_cycles_saved) << at << "#" << k;
      EXPECT_EQ(rw[k].op_energy.si(), ro[k].op_energy.si()) << at << "#" << k;
      const MultPlan& a = rw[k].plan;
      const MultPlan& b = ro[k].plan;
      EXPECT_TRUE(a.depth == b.depth && a.skip == b.skip && a.d1_staged == b.d1_staged &&
                  a.pipelined == b.pipelined)
          << at << "plan of #" << k;
    }
    for (std::size_t r = 0; r < cfg.geometry.rows; ++r)
      ASSERT_EQ(whole.peek_row(r), ones.peek_row(r)) << at << "main row " << r;
    for (std::size_t r = 0; r < cfg.geometry.dummy_rows; ++r)
      ASSERT_EQ(whole.sram().row(RowRef::dummy(r)), ones.sram().row(RowRef::dummy(r)))
          << at << "dummy row " << r;
    EXPECT_EQ(whole.last_op().cycles, ones.last_op().cycles) << at;
    EXPECT_EQ(whole.last_op().op_energy.si(), ones.last_op().op_energy.si()) << at;
    EXPECT_EQ(whole.total_cycles(), ones.total_cycles()) << at;
    EXPECT_EQ(whole.total_energy().si(), ones.total_energy().si()) << at;
    for (std::size_t c = 0; c < 8; ++c) {
      const auto comp = static_cast<energy::Component>(c);
      EXPECT_EQ(whole.component_energy(comp).si(), ones.component_energy(comp).si()) << at;
    }
    EXPECT_EQ(got.instructions, want.instructions) << at;
    EXPECT_EQ(got.cycles, want.cycles) << at;
    EXPECT_EQ(got.fused_cycles_saved, want.fused_cycles_saved) << at;
    EXPECT_EQ(got.adaptive_cycles_saved, want.adaptive_cycles_saved) << at;
    EXPECT_EQ(got.energy.si(), want.energy.si()) << at;
    EXPECT_EQ(got.elapsed.si(), want.elapsed.si()) << at;
    EXPECT_EQ(got.mults, want.mults) << at;
    EXPECT_EQ(got.skipped, want.skipped) << at;
    EXPECT_EQ(got.depths, want.depths) << at;

    for (std::size_t k = 0; k < rw.size(); ++k) {
      const MultPlan& plan = rw[k].plan;
      const unsigned b = p.instructions()[k].bits;
      if (p.instructions()[k].op != Op::Mult) continue;
      d1_staged += plan.d1_staged ? 1 : 0;
      skipped += plan.skip ? 1 : 0;
      narrowed += !plan.skip && plan.depth < b ? 1 : 0;
      if (k > 0 && p.instructions()[k - 1].op == Op::Mult && p.instructions()[k - 1].bits == b &&
          p.instructions()[k - 1].a == p.instructions()[k].a)
        ++long_runs;
    }
  }
  EXPECT_GT(long_runs, 0u);
  EXPECT_GT(d1_staged, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(narrowed, 0u);
  EXPECT_GT(other_bits, 0u);
}

TEST(FuzzPrograms, SealedRunsMatchScan) {
  // The MULT-run partition fixed at sealing equals a brute-force scan from
  // every instruction: the maximal stretch of MULTs at its precision
  // sharing its multiplicand row (k + 1 for any other op). Runs break at
  // SUB, at writes to D1, at precision changes and at a new multiplicand.
  Rng rng(0x5EA1);
  constexpr std::array<unsigned, 5> kBits{2, 4, 8, 16, 32};
  const array::ArrayGeometry g{};
  std::size_t long_runs = 0;
  for (int round = 0; round < 200; ++round) {
    // Multiplicands in R0..R3 or D0, multipliers in R4..R7.
    const auto mcand_row = [&] {
      const std::uint64_t r = rng.uniform_u64(5);
      return r == 4 ? RowRef::dummy(0) : RowRef::main(r);
    };
    Program p;
    RowRef mcand = mcand_row();
    unsigned bits = kBits[rng.uniform_u64(kBits.size())];
    const std::size_t n = rng.uniform_u64(48);
    while (p.size() < n) {
      switch (rng.uniform_u64(10)) {
        case 0: p.sub(RowRef::main(rng.uniform_u64(5)), RowRef::main(5), 8); break;
        case 1: p.unary(Op::Not, RowRef::main(rng.uniform_u64(8)), RowRef::dummy(1), 8); break;
        case 2: bits = kBits[rng.uniform_u64(kBits.size())]; break;
        case 3: mcand = mcand_row(); break;
        default: p.mult(mcand, RowRef::main(4 + rng.uniform_u64(4)), bits);
      }
    }
    const VerifiedProgram sealed = VerifiedProgram::verify(p, g);
    const std::vector<Instruction>& insts = p.instructions();
    for (std::size_t k = 0; k < insts.size(); ++k) {
      std::size_t end = k + 1;
      while (insts[k].op == Op::Mult && end < insts.size() && insts[end].op == Op::Mult &&
             insts[end].bits == insts[k].bits && insts[end].a == insts[k].a)
        ++end;
      EXPECT_EQ(sealed.run_end(k), end) << "round " << round << " #" << k << "\n" << p.dump();
      long_runs += end > k + 1 ? 1 : 0;
    }
  }
  EXPECT_GT(long_runs, 0u);
}

TEST(FuzzPrograms, CorruptedStreamsAreRejectedBeforeExecution) {
  Rng rng(0xDEAD);
  for (int round = 0; round < 12; ++round) {
    ImcMacro macro{MacroConfig{}};
    MacroController ctl(macro, VerifyMode::VerifyFirst);

    // A short valid prefix, then one corrupted instruction mid-stream.
    Program p;
    for (int n = 0; n < 5; ++n)
      p.add(RowRef::main(rng.uniform_u64(6)), RowRef::main(6 + rng.uniform_u64(6)), 8);
    Instruction bad;
    bad.b = RowRef::main(1);
    switch (rng.uniform_u64(4)) {
      case 0:  // row beyond the array
        bad.op = Op::Add;
        bad.a = RowRef::main(500 + rng.uniform_u64(500));
        bad.bits = 8;
        break;
      case 1:  // width the ISA does not implement
        bad.op = Op::Sub;
        bad.a = RowRef::main(0);
        bad.bits = 7;
        break;
      case 2:  // dual-WL op sensing one row twice
        bad.op = Op::Add;
        bad.a = RowRef::main(1);
        bad.bits = 8;
        break;
      case 3:  // MULT sourcing its own scratch row
        bad.op = Op::Mult;
        bad.a = RowRef::dummy(2);
        bad.bits = 8;
        break;
    }
    p.push(bad);
    for (int n = 0; n < 5; ++n)
      p.add(RowRef::main(rng.uniform_u64(6)), RowRef::main(6 + rng.uniform_u64(6)), 8);

    const VerifyReport rep = verify_program(p, macro.config().geometry);
    EXPECT_FALSE(rep.ok()) << "round " << round << ": corruption not caught";
    EXPECT_THROW(ctl.run(p), std::invalid_argument);
    // Rejected whole: the valid prefix never executed either.
    EXPECT_EQ(macro.total_cycles(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace bpim::macro
