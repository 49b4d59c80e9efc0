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
